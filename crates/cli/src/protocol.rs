//! The `leakc serve` wire protocol: line-delimited JSON.
//!
//! Each request is one JSON object on one line; each response is one
//! JSON object on one line, written in request order per connection.
//! The workspace is hermetic (no serde), so this module carries a
//! minimal JSON reader — objects, arrays, strings, integers, booleans,
//! null — sized to the protocol, plus the typed request parser and the
//! response renderers. Responses for `check` requests deliberately
//! contain no timings or host details: the CI smoke byte-compares the
//! response stream of a `--workers 1` daemon against a `--workers 8`
//! one.
//!
//! Request kinds:
//!
//! * `{"kind": "check", "id": ..., "source": "...", "query_budget": N,
//!   "max_retries": N, "deadline_ms": N, "inject": "SPEC",
//!   "explain": true}` — run the detector on the inline source (first
//!   `@check` loop and `@region` methods), governed by the optional
//!   overrides; `explain` additionally renders escape-chain witnesses.
//! * `{"kind": "delta", "id": ..., "source": "...", "changed": ["M.f"]}`
//!   — incremental re-check against the daemon's persistent summary
//!   cache (requires `serve --cache DIR`): stored summaries whose
//!   composed content key drifted are invalidated transitively and the
//!   result replays warm when the analysis-visible content is
//!   unchanged. The response carries `warm`, `invalidated` and the
//!   verified changed-method set alongside the usual report text.
//! * `{"kind": "panic", "id": ...}` — deliberately panic the worker
//!   (fault injection for the supervision path; the daemon must answer
//!   `internal` and stay up).
//! * `{"kind": "health"}` / `{"kind": "stats"}` — liveness and counters;
//!   answered inline, never queued, so they work under overload.
//! * `{"kind": "metrics"}` — the Prometheus text exposition as one
//!   escaped JSON string; answered inline like `health`/`stats` (the
//!   same text is also served raw on the `--metrics-addr` listener).
//! * `{"kind": "shutdown"}` — request a graceful drain (same path as
//!   SIGTERM).

pub use leakchecker::json_escape;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (the protocol only uses non-negative integers, but
    /// the reader accepts minus signs so errors stay typed).
    Num(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// Maximum container nesting the reader accepts. The protocol itself
/// nests two levels deep; the bound exists so a malicious line of
/// `[[[[…` exhausts a typed error, not the connection thread's stack
/// (a stack overflow aborts the whole process, killing every worker).
const MAX_DEPTH: usize = 64;

struct Reader<'a> {
    /// The line being parsed; `bytes` is its byte view. Every position
    /// the reader stops at between tokens is a character boundary, so
    /// runs of string content are sliced out of `text` without
    /// re-validating UTF-8.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\r' || b == b'\n' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Reads a string literal in one pass: each run of bytes up to the
    /// next `"` or `\` is copied as one slice. Both delimiters are
    /// ASCII, so a run always ends on a character boundary of `text`.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
            let escape = self.peek().ok_or("unterminated escape")?;
            self.pos += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'r' => out.push('\r'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    self.pos += 4;
                    // Surrogate pairs are not needed by this protocol;
                    // map them to the replacement char.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape \\{}", other as char)),
            }
        }
    }

    /// Records entry into a container, refusing past [`MAX_DEPTH`].
    /// (Error paths abort the whole parse, so the counter need not be
    /// wound back on failure.)
    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} levels"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<i64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number at byte {start}"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                self.pos += 1;
                self.enter()?;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                self.enter()?;
                let mut map = BTreeMap::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(map));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    map.insert(key, self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(Json::Obj(map));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
        }
    }
}

/// Parses one line of JSON into a value.
///
/// # Errors
///
/// Reports the first syntax error with its byte position.
pub fn parse_json(line: &str) -> Result<Json, String> {
    let mut reader = Reader {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = reader.value()?;
    reader.skip_ws();
    if reader.pos != reader.bytes.len() {
        return Err(format!("trailing garbage at byte {}", reader.pos));
    }
    Ok(value)
}

/// Longest line the daemon and the router read from a peer (64 MiB):
/// far above the ~4–5 MB `check` frame of a 100k-statement program. A
/// fixed bound, so a peer that never sends a newline cannot grow a
/// connection's buffer without limit.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// One line read by [`read_frame`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A complete line, its `\n` stripped.
    Line(String),
    /// The stream ended after these bytes without a `\n`: a client's
    /// last unterminated line, or a peer that died mid-write.
    Unterminated(String),
    /// The stream ended before any byte of a new line.
    Closed,
    /// The line grew past the cap before its `\n`; reading stopped
    /// there.
    Oversized,
}

/// Reads one `\n`-terminated line of at most `cap` bytes (the `\n` not
/// counted), copying each buffered chunk once.
///
/// # Errors
///
/// A read error before any byte of the line arrived (one after some
/// bytes reports [`Frame::Unterminated`]), or a line that is not UTF-8
/// (`InvalidData`).
pub fn read_frame<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Frame> {
    let mut line = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if line.is_empty() => return Err(e),
            Err(_) => &[],
        };
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if line.len() + take > cap {
            return Ok(Frame::Oversized);
        }
        line.extend_from_slice(&chunk[..take]);
        let at_end = chunk.is_empty();
        reader.consume(take + usize::from(newline.is_some()));
        if newline.is_none() && !at_end {
            continue;
        }
        if line.is_empty() && at_end {
            return Ok(Frame::Closed);
        }
        let text =
            String::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        return Ok(if at_end {
            Frame::Unterminated(text)
        } else {
            Frame::Line(text)
        });
    }
}

/// Writes `line` and its `\n` in one write, so a frame leaves in one
/// segment on a `TCP_NODELAY` socket.
pub fn write_frame<W: Write>(writer: &mut W, line: &str) -> io::Result<()> {
    let mut frame = Vec::with_capacity(line.len() + 1);
    frame.extend_from_slice(line.as_bytes());
    frame.push(b'\n');
    writer.write_all(&frame)?;
    writer.flush()
}

/// The one typed refusal of a request line longer than
/// [`MAX_FRAME_BYTES`]; the connection is closed after it.
pub fn render_oversized() -> String {
    render_error(
        &None,
        &format!("malformed request: line longer than {MAX_FRAME_BYTES} bytes"),
    )
}

/// Governance overrides a `check` request may carry; `None` fields use
/// the daemon defaults.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckOverrides {
    /// `"query_budget": N`
    pub query_budget: Option<usize>,
    /// `"max_retries": N`
    pub max_retries: Option<u32>,
    /// `"deadline_ms": N`
    pub deadline_ms: Option<u64>,
    /// `"inject": "exhaust@N,panic@M,deadline@D"`
    pub inject: Option<String>,
    /// `"explain": true` — enable witness recording and render each
    /// report with its escape chain (the daemon twin of `--explain`).
    pub explain: bool,
}

/// One parsed request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline.
    Health,
    /// Counter snapshot; answered inline.
    Stats,
    /// Prometheus-text exposition wrapped in one JSON frame; answered
    /// inline (like `health`/`stats`) even while draining.
    Metrics,
    /// Graceful-drain request (protocol twin of SIGTERM).
    Shutdown,
    /// Injected worker panic (supervision fault drill).
    Panic {
        /// Echoed back in the response.
        id: Option<String>,
    },
    /// Analyze inline source.
    Check {
        /// Echoed back in the response.
        id: Option<String>,
        /// The program text.
        source: String,
        /// Governance overrides.
        overrides: CheckOverrides,
    },
    /// Incremental re-check of edited source against the daemon's
    /// persistent summary cache: the client names the methods it
    /// changed, the server invalidates transitively (everything whose
    /// composed key drifted) and replays or recomputes warm.
    Delta {
        /// Echoed back in the response.
        id: Option<String>,
        /// The full post-edit program text.
        source: String,
        /// Qualified names of the methods the client edited (advisory:
        /// the server verifies against stored content hashes and
        /// reports the set it actually observed changed).
        changed: Vec<String>,
        /// Governance overrides.
        overrides: CheckOverrides,
    },
}

fn opt_u64(obj: &BTreeMap<String, Json>, key: &str) -> Result<Option<u64>, String> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Num(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(other) => Err(format!(
            "field `{key}` must be a non-negative number, got {}",
            other.type_name()
        )),
    }
}

fn request_id(obj: &BTreeMap<String, Json>) -> Result<Option<String>, String> {
    match obj.get("id") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(format!("\"{}\"", json_escape(s)))),
        Some(Json::Num(n)) => Ok(Some(n.to_string())),
        Some(other) => Err(format!(
            "field `id` must be a string or number, got {}",
            other.type_name()
        )),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Malformed JSON, a missing/unknown `kind`, or ill-typed fields.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Json::Obj(mut obj) = parse_json(line)? else {
        return Err("request must be a JSON object".to_string());
    };
    // String fields are moved out of the parsed object, never cloned:
    // `source` is the bulk of every work frame.
    let kind = match obj.remove("kind") {
        Some(Json::Str(s)) => s,
        Some(other) => {
            return Err(format!(
                "field `kind` must be a string, got {}",
                other.type_name()
            ))
        }
        None => return Err("missing field `kind`".to_string()),
    };
    match kind.as_str() {
        "health" => Ok(Request::Health),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "shutdown" => Ok(Request::Shutdown),
        "panic" => Ok(Request::Panic {
            id: request_id(&obj)?,
        }),
        "check" => {
            let source = match obj.remove("source") {
                Some(Json::Str(s)) => s,
                Some(other) => {
                    return Err(format!(
                        "field `source` must be a string, got {}",
                        other.type_name()
                    ))
                }
                None => return Err("check request missing field `source`".to_string()),
            };
            let explain = match obj.get("explain") {
                None | Some(Json::Null) => false,
                Some(Json::Bool(b)) => *b,
                Some(other) => {
                    return Err(format!(
                        "field `explain` must be a boolean, got {}",
                        other.type_name()
                    ))
                }
            };
            let inject = match obj.remove("inject") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s),
                Some(other) => {
                    return Err(format!(
                        "field `inject` must be a string, got {}",
                        other.type_name()
                    ))
                }
            };
            Ok(Request::Check {
                id: request_id(&obj)?,
                source,
                overrides: CheckOverrides {
                    query_budget: opt_u64(&obj, "query_budget")?.map(|n| n as usize),
                    max_retries: opt_u64(&obj, "max_retries")?.map(|n| n as u32),
                    deadline_ms: opt_u64(&obj, "deadline_ms")?,
                    inject,
                    explain,
                },
            })
        }
        "delta" => {
            let source = match obj.remove("source") {
                Some(Json::Str(s)) => s,
                Some(other) => {
                    return Err(format!(
                        "field `source` must be a string, got {}",
                        other.type_name()
                    ))
                }
                None => return Err("delta request missing field `source`".to_string()),
            };
            let changed = match obj.remove("changed") {
                None | Some(Json::Null) => Vec::new(),
                Some(Json::Arr(items)) => {
                    let mut names = Vec::with_capacity(items.len());
                    for item in items {
                        match item {
                            Json::Str(s) => names.push(s),
                            other => {
                                return Err(format!(
                                    "field `changed` must hold strings, got {}",
                                    other.type_name()
                                ))
                            }
                        }
                    }
                    names
                }
                Some(other) => {
                    return Err(format!(
                        "field `changed` must be an array, got {}",
                        other.type_name()
                    ))
                }
            };
            let inject = match obj.remove("inject") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s),
                Some(other) => {
                    return Err(format!(
                        "field `inject` must be a string, got {}",
                        other.type_name()
                    ))
                }
            };
            Ok(Request::Delta {
                id: request_id(&obj)?,
                source,
                changed,
                overrides: CheckOverrides {
                    query_budget: opt_u64(&obj, "query_budget")?.map(|n| n as usize),
                    max_retries: opt_u64(&obj, "max_retries")?.map(|n| n as u32),
                    deadline_ms: opt_u64(&obj, "deadline_ms")?,
                    inject,
                    explain: false,
                },
            })
        }
        other => Err(format!("unknown request kind `{other}`")),
    }
}

/// Renders a parsed request back into one canonical wire line. Used by
/// the router to forward frames: re-rendering (instead of byte-copying
/// the client's line) is what lets it rewrite `deadline_ms` to the
/// *remaining* end-to-end budget on every attempt. `parse_request` of
/// the output round-trips to an equal `Request`.
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Health => "{\"kind\": \"health\"}".to_string(),
        Request::Stats => "{\"kind\": \"stats\"}".to_string(),
        Request::Metrics => "{\"kind\": \"metrics\"}".to_string(),
        Request::Shutdown => "{\"kind\": \"shutdown\"}".to_string(),
        Request::Panic { id } => format!("{{\"kind\": \"panic\"{}}}", id_suffix(id)),
        Request::Check {
            id,
            source,
            overrides,
        } => {
            let mut out = format!("{{\"kind\": \"check\"{}", id_suffix(id));
            let _ = write!(out, ", \"source\": \"{}\"", json_escape(source));
            if let Some(n) = overrides.query_budget {
                let _ = write!(out, ", \"query_budget\": {n}");
            }
            if let Some(n) = overrides.max_retries {
                let _ = write!(out, ", \"max_retries\": {n}");
            }
            if let Some(n) = overrides.deadline_ms {
                let _ = write!(out, ", \"deadline_ms\": {n}");
            }
            if let Some(spec) = &overrides.inject {
                let _ = write!(out, ", \"inject\": \"{}\"", json_escape(spec));
            }
            if overrides.explain {
                out.push_str(", \"explain\": true");
            }
            out.push('}');
            out
        }
        Request::Delta {
            id,
            source,
            changed,
            overrides,
        } => {
            let mut out = format!("{{\"kind\": \"delta\"{}", id_suffix(id));
            let _ = write!(out, ", \"source\": \"{}\"", json_escape(source));
            if !changed.is_empty() {
                let names: Vec<String> = changed
                    .iter()
                    .map(|n| format!("\"{}\"", json_escape(n)))
                    .collect();
                let _ = write!(out, ", \"changed\": [{}]", names.join(", "));
            }
            if let Some(n) = overrides.query_budget {
                let _ = write!(out, ", \"query_budget\": {n}");
            }
            if let Some(n) = overrides.max_retries {
                let _ = write!(out, ", \"max_retries\": {n}");
            }
            if let Some(n) = overrides.deadline_ms {
                let _ = write!(out, ", \"deadline_ms\": {n}");
            }
            if let Some(spec) = &overrides.inject {
                let _ = write!(out, ", \"inject\": \"{}\"", json_escape(spec));
            }
            out.push('}');
            out
        }
    }
}

/// How a router should treat one backend response line.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResponseClass {
    /// A definitive answer (`ok`, `error`, `internal`): forward it to
    /// the client. Retrying elsewhere would recompute the same bytes —
    /// check analysis is deterministic — so there is nothing to gain.
    Terminal,
    /// A typed transient refusal (`overloaded`, `draining`): the shard
    /// is alive but declined the work. Retry on a replica after
    /// backoff; never forward to the client while budget remains.
    Retryable,
    /// Not a recognizable response frame (torn or corrupt): treat like
    /// a transport failure and retry elsewhere.
    Malformed,
}

/// Classifies a backend response line for the retry policy.
pub fn response_class(line: &str) -> ResponseClass {
    let Ok(Json::Obj(obj)) = parse_json(line) else {
        return ResponseClass::Malformed;
    };
    match obj.get("status") {
        Some(Json::Str(s)) => match s.as_str() {
            "overloaded" | "draining" => ResponseClass::Retryable,
            _ => ResponseClass::Terminal,
        },
        _ => ResponseClass::Malformed,
    }
}

/// The `"id": <id>, ` fragment when the request carried an id.
fn id_fragment(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\": {id}, "),
        None => String::new(),
    }
}

/// Re-addresses a response frame that was computed for the id-less
/// canonical twin of a coalesced request: inserts this submitter's
/// `"id"` as the leading field, yielding exactly the bytes an
/// uncoalesced run would have rendered. A `None` id (or a non-object
/// frame) returns the response unchanged.
pub fn readdress_response(id: &Option<String>, response: &str) -> String {
    match (id, response.strip_prefix('{')) {
        (Some(_), Some(rest)) => format!("{{{}{rest}", id_fragment(id)),
        _ => response.to_string(),
    }
}

/// The `, "id": <id>` fragment (for frames where `kind` leads).
fn id_suffix(id: &Option<String>) -> String {
    match id {
        Some(id) => format!(", \"id\": {id}"),
        None => String::new(),
    }
}

/// `status: ok` response for a completed check.
pub fn render_check_ok(
    id: &Option<String>,
    exit_code: i32,
    reports: u64,
    degraded: bool,
    output: &str,
) -> String {
    format!(
        "{{{}\"status\": \"ok\", \"exit_code\": {exit_code}, \"reports\": {reports}, \
         \"degraded\": {degraded}, \"output\": \"{}\"}}",
        id_fragment(id),
        json_escape(output)
    )
}

/// Warm/invalidation accounting of one delta re-check, rendered by
/// [`render_delta_ok`] next to the usual check fields.
pub struct DeltaAccounting<'a> {
    /// Targets replayed from the persistent store.
    pub warm: u64,
    /// Stored summaries invalidated by content-hash drift.
    pub invalidated: u64,
    /// Changed methods *verified* against the stored hashes — the
    /// client's claim is cross-checked, never echoed.
    pub changed: &'a [String],
}

/// `status: ok` response for a completed delta re-check: the check
/// fields plus the warm/invalidation accounting and the verified
/// changed-method set.
pub fn render_delta_ok(
    id: &Option<String>,
    exit_code: i32,
    reports: u64,
    degraded: bool,
    accounting: &DeltaAccounting<'_>,
    output: &str,
) -> String {
    let DeltaAccounting {
        warm,
        invalidated,
        changed,
    } = *accounting;
    let names: Vec<String> = changed
        .iter()
        .map(|n| format!("\"{}\"", json_escape(n)))
        .collect();
    format!(
        "{{{}\"status\": \"ok\", \"exit_code\": {exit_code}, \"reports\": {reports}, \
         \"degraded\": {degraded}, \"warm\": {warm}, \"invalidated\": {invalidated}, \
         \"changed\": [{}], \"output\": \"{}\"}}",
        id_fragment(id),
        names.join(", "),
        json_escape(output)
    )
}

/// `status: error` — the request was understood but could not be
/// served (compile error, no target, bad inject spec).
pub fn render_error(id: &Option<String>, message: &str) -> String {
    format!(
        "{{{}\"status\": \"error\", \"message\": \"{}\"}}",
        id_fragment(id),
        json_escape(message)
    )
}

/// `status: internal` — the worker serving the request panicked and was
/// quarantined; the daemon is still healthy.
pub fn render_internal(id: &Option<String>, message: &str) -> String {
    format!(
        "{{{}\"status\": \"internal\", \"message\": \"{}\"}}",
        id_fragment(id),
        json_escape(message)
    )
}

/// `status: overloaded` — typed shed: the bounded queue is full and the
/// request was NOT admitted. Clients should back off and retry.
pub fn render_overloaded(id: &Option<String>, queue_depth: u64) -> String {
    format!(
        "{{{}\"status\": \"overloaded\", \"queue_depth\": {queue_depth}}}",
        id_fragment(id)
    )
}

/// `status: draining` — the daemon is shutting down and no longer
/// admits work.
pub fn render_draining(id: &Option<String>) -> String {
    format!("{{{}\"status\": \"draining\"}}", id_fragment(id))
}

/// `status: unavailable` — a router exhausted its retry budget or
/// end-to-end deadline without extracting a terminal answer from any
/// replica. The request was *not* (observably) served; clients may
/// retry with a fresh budget.
pub fn render_unavailable(id: &Option<String>, message: &str) -> String {
    format!(
        "{{{}\"status\": \"unavailable\", \"message\": \"{}\"}}",
        id_fragment(id),
        json_escape(message)
    )
}

/// Response to the `metrics` verb: the full Prometheus text exposition
/// carried as one escaped string, so it fits the line-delimited frame.
/// Scrapers unescape `metrics` to recover the multi-line text (the
/// plain `GET /metrics` listener serves the same text unwrapped).
pub fn render_metrics_ok(exposition: &str) -> String {
    format!(
        "{{\"status\": \"ok\", \"metrics\": \"{}\"}}",
        json_escape(exposition)
    )
}

/// Extracts the raw exposition text from a `metrics`-verb response
/// frame, undoing the JSON string escaping.
pub fn parse_metrics_response(line: &str) -> Result<String, String> {
    let json = parse_json(line)?;
    let Json::Obj(obj) = json else {
        return Err("metrics response is not an object".to_string());
    };
    match obj.get("status") {
        Some(Json::Str(s)) if s == "ok" => {}
        other => return Err(format!("metrics response status: {other:?}")),
    }
    match obj.get("metrics") {
        Some(Json::Str(text)) => Ok(text.clone()),
        other => Err(format!("metrics response body: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalar_and_nested_values() {
        assert_eq!(parse_json("null").unwrap(), Json::Null);
        assert_eq!(parse_json(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse_json("-42").unwrap(), Json::Num(-42));
        assert_eq!(
            parse_json("\"a\\n\\\"b\\u0041\"").unwrap(),
            Json::Str("a\n\"bA".to_string())
        );
        let Json::Obj(obj) = parse_json(r#"{"a": [1, 2], "b": {"c": "d"}}"#).unwrap() else {
            panic!("expected object");
        };
        assert_eq!(obj["a"], Json::Arr(vec![Json::Num(1), Json::Num(2)]));
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            assert!(parse_json(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // A hostile client can send megabytes of `[`; the reader must
        // answer with a parse error instead of blowing the connection
        // thread's stack (which would abort the whole daemon).
        let hostile = "[".repeat(1_000_000);
        let err = parse_json(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Same bound for objects.
        let mut nested_obj = String::new();
        for _ in 0..MAX_DEPTH + 1 {
            nested_obj.push_str("{\"k\":");
        }
        let err = parse_json(&nested_obj).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Depth at the bound still parses.
        let mut ok = "[".repeat(MAX_DEPTH);
        ok.push_str(&"]".repeat(MAX_DEPTH));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn parses_requests() {
        assert_eq!(
            parse_request(r#"{"kind": "health"}"#).unwrap(),
            Request::Health
        );
        assert_eq!(
            parse_request(r#"{"kind": "stats"}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"kind": "shutdown"}"#).unwrap(),
            Request::Shutdown
        );
        let req = parse_request(
            r#"{"kind": "check", "id": 7, "source": "class A { }", "query_budget": 1, "inject": "exhaust@0"}"#,
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Check {
                id: Some("7".to_string()),
                source: "class A { }".to_string(),
                overrides: CheckOverrides {
                    query_budget: Some(1),
                    max_retries: None,
                    deadline_ms: None,
                    inject: Some("exhaust@0".to_string()),
                    explain: false,
                },
            }
        );
        let req = parse_request(r#"{"kind": "check", "source": "class A { }", "explain": true}"#)
            .unwrap();
        let Request::Check { overrides, .. } = req else {
            panic!("expected check");
        };
        assert!(overrides.explain);
        assert!(
            parse_request(r#"{"kind": "check", "source": "x", "explain": 1}"#)
                .unwrap_err()
                .contains("`explain` must be a boolean")
        );
        assert!(parse_request(r#"{"kind": "check"}"#).is_err());
        assert!(parse_request(r#"{"kind": "delta"}"#).is_err());
        assert!(parse_request(r#"{"kind": "delta", "source": "x", "changed": "A.m"}"#).is_err());
        assert!(parse_request(r#"{"kind": "delta", "source": "x", "changed": [1]}"#).is_err());
        assert!(parse_request(r#"{"kind": "nope"}"#).is_err());
        assert!(parse_request("[1]").is_err());
        assert!(parse_request("{oops").is_err());
    }

    #[test]
    fn render_request_round_trips() {
        let requests = [
            Request::Health,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Panic { id: None },
            Request::Panic {
                id: Some("7".to_string()),
            },
            Request::Check {
                id: Some("\"req-1\"".to_string()),
                source: "class A { void m() { } }\nclass B { }".to_string(),
                overrides: CheckOverrides {
                    query_budget: Some(12),
                    max_retries: Some(2),
                    deadline_ms: Some(4500),
                    inject: Some("exhaust@1".to_string()),
                    explain: true,
                },
            },
            Request::Check {
                id: None,
                source: "class A { }".to_string(),
                overrides: CheckOverrides::default(),
            },
            Request::Delta {
                id: Some("\"edit-9\"".to_string()),
                source: "class A { void m() { } }".to_string(),
                changed: vec!["A.m".to_string(), "B.<init>".to_string()],
                overrides: CheckOverrides {
                    query_budget: Some(9),
                    max_retries: None,
                    deadline_ms: Some(1200),
                    inject: None,
                    explain: false,
                },
            },
            Request::Delta {
                id: None,
                source: "class A { }".to_string(),
                changed: Vec::new(),
                overrides: CheckOverrides::default(),
            },
        ];
        for req in requests {
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
        // The router's deadline rewrite: re-render with a tightened
        // budget and the frame carries the new value.
        let Request::Check {
            id,
            source,
            mut overrides,
        } = parse_request(r#"{"kind": "check", "id": 3, "source": "x y", "deadline_ms": 9000}"#)
            .unwrap()
        else {
            panic!("expected check")
        };
        overrides.deadline_ms = Some(1234);
        let line = render_request(&Request::Check {
            id,
            source,
            overrides,
        });
        assert!(line.contains("\"deadline_ms\": 1234"), "{line}");
    }

    /// A source text of `pieces` random pieces: ASCII runs, 2-, 3- and
    /// 4-byte characters, and every escape class (quote, backslash,
    /// newline, tab, carriage return, `\u00XX` controls), so escapes
    /// land directly next to multi-byte characters.
    fn random_source(rng: &mut leakchecker_benchsuite::SplitMix64, pieces: usize) -> String {
        const PIECES: [&str; 16] = [
            "class A { }",
            "x",
            " ",
            "é",
            "ß",
            "€",
            "漢",
            "😀",
            "𝄞",
            "\"",
            "\\",
            "\n",
            "\t",
            "\r",
            "\u{1}",
            "\u{1f}",
        ];
        let mut out = String::new();
        for _ in 0..pieces {
            out.push_str(PIECES[rng.gen_range(0, PIECES.len() as u64) as usize]);
        }
        out
    }

    #[test]
    fn render_then_parse_round_trips_generated_requests() {
        let mut rng = leakchecker_benchsuite::SplitMix64::new(0x5EED);
        for case in 0..500 {
            let pieces = rng.gen_range(0, 40) as usize;
            let source = random_source(&mut rng, pieces);
            let id = match rng.gen_range(0, 3) {
                0 => None,
                1 => Some(rng.gen_range(0, 1000).to_string()),
                _ => Some(format!("\"{}\"", json_escape(&random_source(&mut rng, 3)))),
            };
            let maybe = |rng: &mut leakchecker_benchsuite::SplitMix64| {
                (rng.gen_range(0, 2) == 1).then(|| rng.gen_range(0, 100_000))
            };
            let overrides = CheckOverrides {
                query_budget: maybe(&mut rng).map(|n| n as usize),
                max_retries: maybe(&mut rng).map(|n| n as u32),
                deadline_ms: maybe(&mut rng),
                inject: maybe(&mut rng).map(|n| format!("exhaust@{n}")),
                explain: false,
            };
            let req = if case % 2 == 0 {
                Request::Check {
                    id,
                    source,
                    overrides: CheckOverrides {
                        explain: rng.gen_range(0, 2) == 1,
                        ..overrides
                    },
                }
            } else {
                let changed = (0..rng.gen_range(0, 3))
                    .map(|_| random_source(&mut rng, 2))
                    .collect();
                Request::Delta {
                    id,
                    source,
                    changed,
                    overrides,
                }
            };
            let line = render_request(&req);
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn escapes_next_to_multibyte_characters_decode() {
        assert_eq!(
            parse_json(r#""é\n漢\"😀\\ß\u00e9\t𝄞\/\b\f€\r""#).unwrap(),
            Json::Str("é\n漢\"😀\\ßé\t𝄞/\u{8}\u{c}€\r".to_string())
        );
        for (bad, message) in [
            ("\"é", "unterminated string"),
            ("\"漢\\", "unterminated escape"),
            ("\"\\u00", "truncated \\u escape"),
            ("\"\\u00é\"", "bad \\u escape"),
            ("\"😀\\q\"", "bad escape \\q"),
        ] {
            assert_eq!(parse_json(bad).unwrap_err(), message, "{bad}");
        }
    }

    #[test]
    fn a_four_megabyte_frame_parses_in_linear_time() {
        // The reader once re-validated the rest of the line per copied
        // character: minutes for this frame. One pass takes far less
        // than a second, even unoptimized.
        let mut rng = leakchecker_benchsuite::SplitMix64::new(4);
        let mut source = String::new();
        while source.len() < 4 << 20 {
            source.push_str(&random_source(&mut rng, 64));
        }
        let req = Request::Check {
            id: Some("1".to_string()),
            source,
            overrides: CheckOverrides::default(),
        };
        let line = render_request(&req);
        let start = std::time::Instant::now();
        let parsed = parse_request(&line).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(parsed, req);
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "parsing a {} byte frame took {elapsed:?}",
            line.len()
        );
    }

    #[test]
    fn frame_reader_bounds_lines_and_reports_how_the_stream_ended() {
        let read_all = |input: &[u8], cap: usize| {
            let mut reader = std::io::BufReader::with_capacity(4, input);
            let mut frames = Vec::new();
            loop {
                let frame = read_frame(&mut reader, cap).unwrap();
                let end = matches!(frame, Frame::Closed | Frame::Oversized);
                frames.push(frame);
                if end {
                    return frames;
                }
            }
        };
        let line = |s: &str| Frame::Line(s.to_string());
        assert_eq!(
            read_all(b"ab\n\nhealth-check\ntail", 12),
            [
                line("ab"),
                line(""),
                line("health-check"),
                Frame::Unterminated("tail".to_string()),
                Frame::Closed
            ]
        );
        assert_eq!(
            read_all(b"ok\n0123456789abc\nnever read\n", 12),
            [line("ok"), Frame::Oversized]
        );
        assert_eq!(read_all(b"0123456789abc", 12), [Frame::Oversized]);
        let mut invalid = std::io::BufReader::new(&b"\xff\n"[..]);
        assert_eq!(
            read_frame(&mut invalid, 12).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn readdressing_an_idless_frame_matches_the_direct_render() {
        let id = Some("7".to_string());
        assert_eq!(
            readdress_response(&id, &render_check_ok(&None, 1, 2, false, "out")),
            render_check_ok(&id, 1, 2, false, "out")
        );
        assert_eq!(
            readdress_response(&id, &render_internal(&None, "boom")),
            render_internal(&id, "boom")
        );
        let frame = render_check_ok(&None, 0, 0, false, "");
        assert_eq!(readdress_response(&None, &frame), frame);
    }

    #[test]
    fn metrics_frame_round_trips_the_exposition_text() {
        assert_eq!(
            parse_request(r#"{"kind": "metrics"}"#).unwrap(),
            Request::Metrics
        );
        let text =
            "# HELP leakc_queue_depth depth\n# TYPE leakc_queue_depth gauge\nleakc_queue_depth 0\n";
        let frame = render_metrics_ok(text);
        assert!(frame.starts_with("{\"status\": \"ok\", \"metrics\": \""));
        assert_eq!(parse_metrics_response(&frame).unwrap(), text);
        assert!(parse_metrics_response("{\"status\": \"error\"}").is_err());
        assert!(parse_metrics_response("nope").is_err());
    }

    #[test]
    fn response_classification_separates_retryable_from_terminal() {
        let id = Some("1".to_string());
        for terminal in [
            render_check_ok(&id, 0, 0, false, "no leaks"),
            render_error(&id, "compile error"),
            render_internal(&id, "worker panicked"),
            render_unavailable(&id, "deadline exhausted"),
        ] {
            assert_eq!(
                response_class(&terminal),
                ResponseClass::Terminal,
                "{terminal}"
            );
        }
        for retryable in [render_overloaded(&id, 5), render_draining(&id)] {
            assert_eq!(
                response_class(&retryable),
                ResponseClass::Retryable,
                "{retryable}"
            );
        }
        for malformed in ["", "{\"status\": \"ok\"", "torn bytes", "{\"id\": 1}"] {
            assert_eq!(
                response_class(malformed),
                ResponseClass::Malformed,
                "{malformed}"
            );
        }
    }

    #[test]
    fn responses_echo_the_id_and_escape_output() {
        let id = Some("\"req-1\"".to_string());
        let line = render_check_ok(&id, 1, 2, true, "leak: a\nleak: b");
        assert!(
            line.starts_with("{\"id\": \"req-1\", \"status\": \"ok\""),
            "{line}"
        );
        assert!(line.contains("\\n"), "{line}");
        assert!(parse_json(&line).is_ok(), "{line}");
        for line in [
            render_error(&None, "bad \"thing\""),
            render_internal(&id, "worker panicked"),
            render_overloaded(&None, 9),
            render_draining(&id),
        ] {
            assert!(parse_json(&line).is_ok(), "{line}");
        }
    }
}
