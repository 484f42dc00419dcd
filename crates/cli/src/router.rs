//! `leakc route` — the fault-tolerant fleet coordinator.
//!
//! Sits in front of N replicated `leakc serve` shards and presents the
//! same line-delimited JSON protocol on one address. Work requests
//! (`check`, `panic`) are placed on a consistent-hash ring
//! ([`leakchecker::HashRing`]) keyed by the check's source text, so the
//! same program+loop lands on the same primary shard (warm for any
//! future caching) while replicas further along the ring serve as
//! failover targets. Every shard sits behind a circuit breaker
//! ([`leakchecker::CircuitBreaker`]): consecutive transport failures
//! open it, a cooldown later a single half-open probe decides whether
//! the shard is re-admitted. A background prober drives the breakers
//! even when no client traffic flows, and marks shards whose `health`
//! frame reports `draining` so the router diverts work before it can be
//! refused.
//!
//! The retry policy leans on a fleet invariant the shards uphold: check
//! analysis is deterministic and check responses carry no shard
//! identity or timing, so *any* replica computes byte-identical answer
//! frames. That makes retry and hedging safe — the client cannot
//! observe which replica answered. Responses are classified by
//! [`crate::protocol::response_class`]: terminal answers are forwarded
//! verbatim; typed refusals (`overloaded`, `draining`) and transport
//! failures (connection refused/reset, read timeout, torn frame) are
//! retried against the next replica in ring order with exponential
//! backoff plus deterministic jitter (seeded from the routing key, so
//! reruns behave identically). The client's `deadline_ms` is the
//! end-to-end budget: on every forwarded attempt the frame is
//! re-rendered with the *remaining* budget, which the shard tightens
//! into its governor (`GovernorConfig::tighten_deadline`), and once the
//! budget or the retry allowance is exhausted the router answers a
//! typed `unavailable` — never a silent drop, never a panic.
//!
//! Optionally (`--hedge-ms`), a request whose primary attempt has not
//! answered within the given latency allowance launches a second
//! attempt on the next replica and takes whichever answers first —
//! determinism of the analysis is what makes the race benign.
//!
//! Observability: the `metrics` protocol verb (and, with
//! `--metrics-addr`, a plain `GET /metrics` listener) exposes routing
//! counters, per-shard breaker state, and `leakc_fleet_*` aggregates
//! scraped from each live shard's `stats` verb.

use crate::protocol::{
    json_escape, parse_json, parse_request, read_frame, render_error, render_metrics_ok,
    render_oversized, render_request, render_unavailable, response_class, write_frame, Frame, Json,
    Request, ResponseClass, MAX_FRAME_BYTES,
};
use crate::serve::{push_family, serve_http_metrics};
use crate::{CliOutput, LeakcError};
use leakchecker::{
    lock_resilient, route_key, BreakerConfig, BreakerStats, CircuitBreaker, HashRing,
};
use leakchecker_benchsuite::SplitMix64;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flags of the `route` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RouteOptions {
    /// `--addr HOST:PORT` for the router's own listener (port 0 =
    /// ephemeral; the bound address is printed on startup).
    pub addr: String,
    /// `--shard HOST:PORT`, repeatable — the backend fleet.
    pub shards: Vec<String>,
    /// `--retries N` — additional attempts after the first (so a
    /// request costs at most `retries + 1` shard round trips).
    pub retries: u32,
    /// `--backoff-ms N` — base retry backoff; attempt k waits
    /// `backoff * 2^k` plus jitter in `[0, backoff)`.
    pub backoff_ms: u64,
    /// `--hedge-ms N` — launch a hedged attempt on the next replica if
    /// the primary has not answered within N ms (off when `None`).
    pub hedge_ms: Option<u64>,
    /// `--deadline-ms N` — default end-to-end budget for requests that
    /// do not carry their own `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// `--attempt-timeout-ms N` — per-attempt cap on connect+read
    /// against one shard (also bounded by the remaining deadline).
    pub attempt_timeout_ms: u64,
    /// `--breaker-failures N` — consecutive failures that open a
    /// shard's breaker.
    pub breaker_failures: u32,
    /// `--breaker-cooldown-ms N` — how long an open breaker waits
    /// before admitting its half-open probe.
    pub breaker_cooldown_ms: u64,
    /// `--probe-interval-ms N` — background health-probe period.
    pub probe_interval_ms: u64,
    /// `--vnodes N` — virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// `--metrics-addr HOST:PORT` — additionally serve the aggregated
    /// fleet exposition raw over plain `GET /metrics` on this address.
    pub metrics_addr: Option<String>,
}

impl Default for RouteOptions {
    fn default() -> Self {
        RouteOptions {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            retries: 4,
            backoff_ms: 20,
            hedge_ms: None,
            deadline_ms: None,
            attempt_timeout_ms: 10_000,
            breaker_failures: BreakerConfig::default().failure_threshold,
            breaker_cooldown_ms: 250,
            probe_interval_ms: 50,
            vnodes: 64,
            metrics_addr: None,
        }
    }
}

/// One backend shard as the router sees it.
struct Endpoint {
    addr: String,
    breaker: Mutex<CircuitBreaker>,
    /// Last health-probe verdict: `true` means the shard reported
    /// `draining` (or its drain refusal was seen on the request path),
    /// so the picker skips it while alternatives exist.
    draining: AtomicBool,
    /// Last observed state label for the stats output: `running`,
    /// `draining`, or `unreachable`.
    last_state: Mutex<String>,
    /// Shard identity from its health frame (`--shard`/`--epoch`),
    /// empty until the first successful probe.
    identity: Mutex<String>,
    /// Last observed epoch; a jump means "same slot, fresh process".
    epoch: AtomicU64,
    /// Observed epoch changes (shard restarts behind the same address).
    restarts: AtomicU64,
    /// Terminal responses this shard produced.
    served: AtomicU64,
    /// Idle persistent connections to the shard, at most
    /// [`POOL_IDLE_CAP`]; see [`attempt_roundtrip`].
    idle: Mutex<Vec<ShardConn>>,
}

/// Idle connections the router keeps per shard. A busier moment opens
/// more; a connection returned to a full pool is closed.
const POOL_IDLE_CAP: usize = 8;

/// One persistent router→shard connection.
struct ShardConn {
    reader: BufReader<TcpStream>,
}

impl ShardConn {
    fn open(addr: &str, timeout: Duration) -> Result<ShardConn, String> {
        let sock_addr = addr
            .to_socket_addrs()
            .ok()
            .and_then(|mut a| a.next())
            .ok_or_else(|| format!("cannot resolve {addr}"))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(ShardConn {
            reader: BufReader::new(stream),
        })
    }

    /// Writes `line` and reads one response line, each bounded by
    /// `timeout`.
    fn exchange(&mut self, addr: &str, line: &str, timeout: Duration) -> Exchange {
        let mut stream = self.reader.get_ref();
        let _ = stream.set_read_timeout(Some(timeout));
        let _ = stream.set_write_timeout(Some(timeout));
        if let Err(e) = write_frame(&mut stream, line) {
            return match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                    Exchange::Failed(format!("write {addr}: {e}"))
                }
                _ => Exchange::Closed(format!("write {addr}: {e}")),
            };
        }
        match read_frame(&mut self.reader, MAX_FRAME_BYTES) {
            Ok(Frame::Line(response)) => Exchange::Answer(response),
            Ok(Frame::Closed) => Exchange::Closed(format!("{addr} closed the connection")),
            Ok(Frame::Unterminated(_)) => {
                Exchange::Failed(format!("torn frame from {addr} (no trailing newline)"))
            }
            Ok(Frame::Oversized) => Exchange::Failed(format!(
                "frame from {addr} longer than {MAX_FRAME_BYTES} bytes"
            )),
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                Exchange::Closed(format!("read {addr}: {e}"))
            }
            Err(e) => Exchange::Failed(format!("read {addr}: {e}")),
        }
    }
}

/// What one write-then-read on a shard connection produced.
enum Exchange {
    /// A complete response line.
    Answer(String),
    /// The peer closed or reset the connection before any response
    /// byte arrived.
    Closed(String),
    /// Any other transport failure: a timeout, a torn or oversized
    /// frame.
    Failed(String),
}

/// Router-level counters, exposed by the `stats` verb.
#[derive(Default)]
struct RouterTelemetry {
    routed: AtomicU64,
    retries: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    unavailable: AtomicU64,
    malformed: AtomicU64,
}

struct RouterInner {
    endpoints: Vec<Endpoint>,
    ring: HashRing,
    options: RouteOptions,
    telemetry: RouterTelemetry,
    start: Instant,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
    /// Requests currently being routed; drain waits for zero so no
    /// accepted request loses its answer.
    in_flight: AtomicU64,
}

/// A running router (in-process handle; the binary, the soak harness,
/// and the chaos tests all drive this).
pub struct Router {
    inner: Arc<RouterInner>,
    accept_handle: Option<JoinHandle<()>>,
    probe_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

/// Outcome of one attempt against one shard.
enum Attempt {
    /// A definitive response line to forward verbatim.
    Terminal(String),
    /// A typed refusal (`overloaded`/`draining`): shard alive, retry
    /// elsewhere. Carries the status for drain bookkeeping.
    Refused(String),
    /// Transport-level failure (refused, reset, timeout, torn frame).
    Failed(String),
}

/// One request/response round trip against `ep` over a pooled
/// connection, bounded by `timeout` for connect, write and read.
///
/// A connection goes back into the pool only after a terminal answer;
/// after a refusal, a timeout or a torn, malformed or oversized frame
/// it is closed, so a late answer can never be read as the reply to a
/// later request. A reused connection that the peer closed before any
/// response byte is a stale idle socket (the shard dropped it while it
/// sat in the pool, e.g. across a restart), not a shard failure: the
/// idle pool is discarded and the frame is sent once more on a fresh
/// connection, and only that attempt's outcome counts. A response line
/// without its trailing newline (the peer died mid-write) is a torn
/// frame and counts as a transport failure — exactly the fault the
/// `torn@N` chaos plan injects.
fn attempt_roundtrip(ep: &Endpoint, line: &str, timeout: Duration) -> Attempt {
    let mut pooled = lock_resilient(&ep.idle).pop();
    loop {
        let reused = pooled.is_some();
        let mut conn = match pooled.take() {
            Some(conn) => conn,
            None => match ShardConn::open(&ep.addr, timeout) {
                Ok(conn) => conn,
                Err(message) => return Attempt::Failed(message),
            },
        };
        let response = match conn.exchange(&ep.addr, line, timeout) {
            Exchange::Answer(response) => response,
            Exchange::Closed(_) if reused => {
                lock_resilient(&ep.idle).clear();
                continue;
            }
            Exchange::Closed(message) | Exchange::Failed(message) => {
                return Attempt::Failed(message)
            }
        };
        return match response_class(&response) {
            ResponseClass::Terminal => {
                let mut idle = lock_resilient(&ep.idle);
                if idle.len() < POOL_IDLE_CAP && conn.reader.buffer().is_empty() {
                    idle.push(conn);
                }
                Attempt::Terminal(response)
            }
            ResponseClass::Retryable => Attempt::Refused(response),
            ResponseClass::Malformed => {
                Attempt::Failed(format!("malformed frame from {}", ep.addr))
            }
        };
    }
}

/// Runs one attempt against endpoint `idx` and feeds the outcome back
/// into its breaker and drain bookkeeping. Called from the routing
/// thread and from hedge threads alike.
fn attempt_and_record(inner: &RouterInner, idx: usize, line: &str, timeout: Duration) -> Attempt {
    let ep = &inner.endpoints[idx];
    let outcome = attempt_roundtrip(ep, line, timeout);
    match &outcome {
        Attempt::Terminal(_) => {
            lock_resilient(&ep.breaker).record_success();
            ep.served.fetch_add(1, Ordering::Relaxed);
        }
        Attempt::Refused(response) => {
            // The shard answered, so the transport is healthy — but a
            // drain refusal means new work should go elsewhere until
            // the prober sees it running again.
            lock_resilient(&ep.breaker).record_success();
            if response.contains("\"status\": \"draining\"") {
                ep.draining.store(true, Ordering::SeqCst);
            }
        }
        Attempt::Failed(_) => {
            lock_resilient(&ep.breaker).record_failure(Instant::now());
        }
    }
    outcome
}

/// Picks the next endpoint to try: walks the ring preference starting
/// at `cursor`, skipping shards that are draining or whose breaker
/// refuses admission. Falls back to ignoring the draining flag (a
/// draining shard still *answers*, with a typed refusal that keeps the
/// retry loop honest) when every admitted shard is draining.
fn pick_endpoint(inner: &RouterInner, preference: &[usize], cursor: &mut usize) -> Option<usize> {
    let now = Instant::now();
    for honor_draining in [true, false] {
        for step in 0..preference.len() {
            let idx = preference[(*cursor + step) % preference.len()];
            let ep = &inner.endpoints[idx];
            if honor_draining && ep.draining.load(Ordering::SeqCst) {
                continue;
            }
            if lock_resilient(&ep.breaker).admit(now) {
                *cursor = (*cursor + step + 1) % preference.len();
                return Some(idx);
            }
        }
    }
    None
}

/// Remaining milliseconds until `deadline` (`None` = unbounded).
fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
}

/// The ring key of a work request: a check's source text, a delta's
/// id-less canonical frame (so the same edit resent under a fresh id,
/// as editors do, lands on the same warm primary), otherwise the
/// canonical frame.
fn routing_key(req: &mut Request) -> u64 {
    match req {
        Request::Check { source, .. } => route_key(source.as_bytes()),
        Request::Delta { id, .. } => {
            let id = id.take();
            let key = route_key(render_request(req).as_bytes());
            if let Request::Delta { id: slot, .. } = req {
                *slot = id;
            }
            key
        }
        other => route_key(render_request(other).as_bytes()),
    }
}

/// The frame an attempt sends: the client's `line` verbatim, or — when
/// a check runs under an end-to-end budget — the request re-rendered
/// with `deadline_ms` rewritten to the remaining budget (`left`, read
/// once by the caller so an exhausted budget is short-circuited
/// *before* rendering — a `"deadline_ms": 0` frame must never be
/// dispatched). The shard's governor sees how much time this attempt
/// really has left (min with its own `--deadline-ms` ceiling via
/// `GovernorConfig::tighten_deadline`).
fn attempt_frame<'a>(req: &mut Request, line: &'a str, left: Option<u64>) -> Cow<'a, str> {
    let Some(left) = left else {
        return Cow::Borrowed(line);
    };
    if let Request::Check { overrides, .. } = req {
        overrides.deadline_ms = Some(left);
    }
    Cow::Owned(render_request(req))
}

/// Routes one work request, received as `line`, to completion: ring
/// placement, breaker gating, bounded retry with backoff+jitter,
/// optional hedging, and a typed `unavailable` when every avenue is
/// exhausted.
fn route_request(inner: &Arc<RouterInner>, mut req: Request, line: &str) -> String {
    let key = routing_key(&mut req);
    let preference = inner.ring.preference(key);
    let client_deadline = match &req {
        Request::Check { overrides, .. } => overrides.deadline_ms,
        _ => None,
    };
    let budget_ms = client_deadline.or(inner.options.deadline_ms);
    let deadline = budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let id = match &req {
        Request::Check { id, .. } | Request::Panic { id } | Request::Delta { id, .. } => id.clone(),
        _ => None,
    };
    let mut jitter = SplitMix64::new(key);
    let mut cursor = 0usize;
    let mut last_failure = String::from("no shard available");
    let total_attempts = inner.options.retries as u64 + 1;
    for attempt in 0..total_attempts {
        if remaining_ms(deadline) == Some(0) {
            last_failure = "end-to-end deadline exhausted".to_string();
            break;
        }
        if attempt > 0 {
            inner.telemetry.retries.fetch_add(1, Ordering::Relaxed);
            // Exponential backoff with deterministic jitter: reruns of
            // the same request mix behave identically.
            let base = inner.options.backoff_ms << (attempt - 1).min(6);
            let wait = base + jitter.gen_range(0, inner.options.backoff_ms.max(1));
            let wait = match remaining_ms(deadline) {
                Some(left) => wait.min(left),
                None => wait,
            };
            std::thread::sleep(Duration::from_millis(wait));
        }
        let Some(primary) = pick_endpoint(inner, &preference, &mut cursor) else {
            last_failure = "all shard breakers open".to_string();
            continue;
        };
        // Read the remaining budget exactly once for this attempt: the
        // backoff sleep above (capped at the budget) or the endpoint
        // pick may have drained it since the loop-top check, and a
        // doomed `"deadline_ms": 0` frame must be short-circuited to
        // the typed `unavailable` here, never dispatched to a shard.
        let left = remaining_ms(deadline);
        if left == Some(0) {
            last_failure = "end-to-end deadline exhausted".to_string();
            break;
        }
        let timeout = Duration::from_millis(match left {
            Some(left) => inner.options.attempt_timeout_ms.min(left.max(1)),
            None => inner.options.attempt_timeout_ms,
        });
        let frame = attempt_frame(&mut req, line, left);
        let outcome = match inner.options.hedge_ms {
            Some(hedge_ms) => hedged_attempt(
                inner,
                primary,
                &preference,
                &mut cursor,
                &frame,
                timeout,
                hedge_ms,
            ),
            None => attempt_and_record(inner, primary, &frame, timeout),
        };
        match outcome {
            Attempt::Terminal(response) => {
                inner.telemetry.routed.fetch_add(1, Ordering::Relaxed);
                return response;
            }
            Attempt::Refused(response) => {
                last_failure = format!("shard refused: {response}");
            }
            Attempt::Failed(message) => {
                last_failure = message;
            }
        }
    }
    inner.telemetry.unavailable.fetch_add(1, Ordering::Relaxed);
    render_unavailable(
        &id,
        &format!("no replica answered within {total_attempts} attempts: {last_failure}"),
    )
}

/// Primary attempt with a latency hedge: if the primary has not
/// answered within `hedge_ms`, launch the same frame at the next
/// replica and take whichever answers first. Attempt threads are
/// detached — a stalled loser must not hold the winner's response
/// hostage — but each still runs to completion so its breaker
/// bookkeeping lands when the slow shard finally answers (or fails).
fn hedged_attempt(
    inner: &Arc<RouterInner>,
    primary: usize,
    preference: &[usize],
    cursor: &mut usize,
    frame: &str,
    timeout: Duration,
    hedge_ms: u64,
) -> Attempt {
    let (tx, rx) = std::sync::mpsc::channel::<(bool, Attempt)>();
    let frame: Arc<str> = Arc::from(frame);
    let primary_tx = tx.clone();
    let primary_inner = Arc::clone(inner);
    let primary_frame = Arc::clone(&frame);
    std::thread::spawn(move || {
        let outcome = attempt_and_record(&primary_inner, primary, &primary_frame, timeout);
        let _ = primary_tx.send((false, outcome));
    });
    if let Ok((_, outcome)) = rx.recv_timeout(Duration::from_millis(hedge_ms)) {
        return outcome;
    }
    // Primary is slow: hedge on the next distinct replica (if the
    // fleet has one the breakers will admit).
    let hedge_idx = pick_endpoint(inner, preference, cursor).filter(|&i| i != primary);
    if let Some(idx) = hedge_idx {
        inner.telemetry.hedges.fetch_add(1, Ordering::Relaxed);
        let hedge_tx = tx.clone();
        let hedge_inner = Arc::clone(inner);
        let hedge_frame = Arc::clone(&frame);
        std::thread::spawn(move || {
            let outcome = attempt_and_record(&hedge_inner, idx, &hedge_frame, timeout);
            let _ = hedge_tx.send((true, outcome));
        });
    }
    drop(tx);
    // Take the first terminal answer; fall back to whatever the
    // last arrival was if neither is terminal.
    let mut last: Option<Attempt> = None;
    let expected = if hedge_idx.is_some() { 2 } else { 1 };
    for _ in 0..expected {
        match rx.recv() {
            Ok((was_hedge, outcome)) => {
                if matches!(outcome, Attempt::Terminal(_)) {
                    if was_hedge {
                        inner.telemetry.hedge_wins.fetch_add(1, Ordering::Relaxed);
                    }
                    return outcome;
                }
                last = Some(outcome);
            }
            Err(_) => break,
        }
    }
    last.unwrap_or(Attempt::Failed("hedge channel closed".to_string()))
}

/// Background health prober: periodically probes every shard whose
/// breaker admits traffic, feeding successes and failures back into the
/// breaker. This is what walks an open breaker through its half-open
/// probe back to closed when a killed shard comes back — even when no
/// client traffic is flowing — and what flips the draining flag off
/// once a drained shard is restarted.
fn probe_endpoints(inner: &RouterInner) {
    for ep in &inner.endpoints {
        let now = Instant::now();
        if !lock_resilient(&ep.breaker).admit(now) {
            continue;
        }
        let timeout = Duration::from_millis(inner.options.probe_interval_ms.max(50));
        match attempt_roundtrip(ep, "{\"kind\": \"health\"}", timeout) {
            Attempt::Terminal(frame) => {
                lock_resilient(&ep.breaker).record_success();
                apply_health_frame(ep, &frame);
            }
            Attempt::Refused(_) | Attempt::Failed(_) => {
                lock_resilient(&ep.breaker).record_failure(Instant::now());
                *lock_resilient(&ep.last_state) = "unreachable".to_string();
            }
        }
    }
}

/// Updates an endpoint's picture of its shard from a health frame:
/// drain state, identity, and epoch (an epoch jump counts a restart).
fn apply_health_frame(ep: &Endpoint, frame: &str) {
    let Ok(Json::Obj(obj)) = parse_json(frame) else {
        return;
    };
    if let Some(Json::Str(state)) = obj.get("state") {
        ep.draining.store(state != "running", Ordering::SeqCst);
        *lock_resilient(&ep.last_state) = state.clone();
    }
    let first_contact = {
        let mut identity = lock_resilient(&ep.identity);
        let first = identity.is_empty();
        if let Some(Json::Str(shard)) = obj.get("shard") {
            *identity = shard.clone();
        } else if first {
            // Anonymous shard (no --shard flag): record contact so a
            // later epoch jump still counts as a restart.
            *identity = "?".to_string();
        }
        first
    };
    if let Some(Json::Num(epoch)) = obj.get("epoch") {
        let epoch = *epoch as u64;
        let prev = ep.epoch.swap(epoch, Ordering::SeqCst);
        // The first observation just learns the epoch; only a *change*
        // afterwards means the slot was restarted under a new process.
        if !first_contact && epoch > prev {
            ep.restarts.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// The router's own `health` frame: fleet-level state.
fn render_router_health(inner: &RouterInner) -> String {
    let available = inner
        .endpoints
        .iter()
        .filter(|ep| !ep.draining.load(Ordering::SeqCst))
        .count();
    let state = if inner.shutdown_requested.load(Ordering::SeqCst) {
        "draining"
    } else {
        "running"
    };
    format!(
        "{{\"status\": \"ok\", \"state\": \"{state}\", \"role\": \"router\", \
         \"shards\": {}, \"available\": {available}, \"uptime_ms\": {}}}",
        inner.endpoints.len(),
        inner.start.elapsed().as_millis()
    )
}

/// The router's own `stats` frame: routing counters plus one object per
/// shard with its breaker walk — `half_open_probes` and
/// `closed_from_half_open` are how the chaos harness proves a killed
/// shard was re-admitted through the half-open gate.
fn render_router_stats(inner: &RouterInner) -> String {
    let t = &inner.telemetry;
    let mut out = String::from("{\"status\": \"ok\", \"role\": \"router\"");
    let _ = write!(
        out,
        ", \"routed\": {}, \"retries\": {}, \"hedges\": {}, \"hedge_wins\": {}, \
         \"unavailable\": {}, \"malformed\": {}",
        t.routed.load(Ordering::Relaxed),
        t.retries.load(Ordering::Relaxed),
        t.hedges.load(Ordering::Relaxed),
        t.hedge_wins.load(Ordering::Relaxed),
        t.unavailable.load(Ordering::Relaxed),
        t.malformed.load(Ordering::Relaxed),
    );
    out.push_str(", \"shards\": [");
    for (i, ep) in inner.endpoints.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let (label, stats): (&'static str, BreakerStats) = {
            let breaker = lock_resilient(&ep.breaker);
            (breaker.state().label(), breaker.stats())
        };
        let _ = write!(
            out,
            "{{\"addr\": \"{}\", \"identity\": \"{}\", \"epoch\": {}, \"restarts\": {}, \
             \"state\": \"{}\", \"breaker\": \"{label}\", \"failures\": {}, \"opened\": {}, \
             \"half_open_probes\": {}, \"closed_from_half_open\": {}, \"reopened\": {}, \
             \"served\": {}}}",
            json_escape(&ep.addr),
            json_escape(&lock_resilient(&ep.identity)),
            ep.epoch.load(Ordering::SeqCst),
            ep.restarts.load(Ordering::SeqCst),
            lock_resilient(&ep.last_state),
            stats.failures,
            stats.opened,
            stats.half_open_probes,
            stats.closed_from_half_open,
            stats.reopened,
            ep.served.load(Ordering::Relaxed),
        );
    }
    let _ = write!(
        out,
        "], \"uptime_ms\": {}}}",
        inner.start.elapsed().as_millis()
    );
    out
}

/// One shard's exposition snapshot: (escaped addr label, breaker state
/// label, breaker stats, restarts, served) — taken under one lock hold
/// so every family reports a consistent view.
type ShardSnapshot = (String, &'static str, BreakerStats, u64, u64);

/// Reads one per-shard counter out of a [`ShardSnapshot`].
type ShardCounter = fn(&ShardSnapshot) -> u64;

/// Escapes a Prometheus label value (`\` → `\\`, `"` → `\"`).
fn label_escape(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Reads a non-negative numeric field out of a parsed stats frame.
fn stats_num(obj: &BTreeMap<String, Json>, key: &str) -> u64 {
    match obj.get(key) {
        Some(Json::Num(n)) if *n >= 0 => *n as u64,
        _ => 0,
    }
}

/// Counters summed across the shards that answered a `stats` scrape.
#[derive(Default)]
struct FleetSums {
    reporting: u64,
    admitted: u64,
    served: u64,
    shed: u64,
    panicked: u64,
    coalesced: u64,
    queue_depth: u64,
    checks: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// Scrapes every shard's `stats` verb (short per-shard timeout; dead
/// shards are skipped, not waited on) and sums the fleet counters.
fn scrape_fleet(inner: &RouterInner) -> FleetSums {
    let mut sums = FleetSums::default();
    let timeout = Duration::from_millis(250);
    for ep in &inner.endpoints {
        let Attempt::Terminal(frame) = attempt_roundtrip(ep, "{\"kind\": \"stats\"}", timeout)
        else {
            continue;
        };
        let Ok(Json::Obj(obj)) = parse_json(&frame) else {
            continue;
        };
        sums.reporting += 1;
        sums.admitted += stats_num(&obj, "admitted");
        sums.served += stats_num(&obj, "served");
        sums.shed += stats_num(&obj, "shed");
        sums.panicked += stats_num(&obj, "panicked");
        sums.coalesced += stats_num(&obj, "coalesced");
        sums.queue_depth += stats_num(&obj, "queue_depth");
        sums.checks += stats_num(&obj, "checks");
        if let Some(Json::Obj(cache)) = obj.get("cache") {
            sums.cache_hits += stats_num(cache, "hits");
            sums.cache_misses += stats_num(cache, "misses");
        }
    }
    sums
}

/// The router's Prometheus text exposition: routing/retry/hedge
/// counters, per-shard breaker state (one-hot over
/// closed/open/half-open) and failure/restart counters, plus
/// `leakc_fleet_*` series aggregated by scraping each live shard's
/// `stats` verb. Aggregation sums counters and gauges; the per-phase
/// latency histograms stay per-shard (scrape each shard's own
/// `/metrics` for those — bucket merging across restarts would lie).
fn render_router_metrics(inner: &RouterInner) -> String {
    let t = &inner.telemetry;
    let mut out = String::new();
    push_family(&mut out, "leakc_router_up", "gauge", "Router liveness.", 1);
    push_family(
        &mut out,
        "leakc_router_shards",
        "gauge",
        "Configured backend shards.",
        inner.endpoints.len() as u64,
    );
    push_family(
        &mut out,
        "leakc_router_routed_total",
        "counter",
        "Requests answered with a terminal frame.",
        t.routed.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_router_retries_total",
        "counter",
        "Retry attempts beyond each request's first.",
        t.retries.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_router_hedges_total",
        "counter",
        "Hedged attempts launched.",
        t.hedges.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_router_hedge_wins_total",
        "counter",
        "Hedged attempts that answered first.",
        t.hedge_wins.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_router_unavailable_total",
        "counter",
        "Requests answered with a typed unavailable.",
        t.unavailable.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_router_malformed_total",
        "counter",
        "Malformed request lines refused.",
        t.malformed.load(Ordering::Relaxed),
    );

    let _ = writeln!(
        out,
        "# HELP leakc_router_breaker_state Breaker state per shard (one-hot)."
    );
    let _ = writeln!(out, "# TYPE leakc_router_breaker_state gauge");
    let snapshots: Vec<ShardSnapshot> = inner
        .endpoints
        .iter()
        .map(|ep| {
            let (label, stats) = {
                let breaker = lock_resilient(&ep.breaker);
                (breaker.state().label(), breaker.stats())
            };
            (
                label_escape(&ep.addr),
                label,
                stats,
                ep.restarts.load(Ordering::SeqCst),
                ep.served.load(Ordering::Relaxed),
            )
        })
        .collect();
    for (addr, label, _, _, _) in &snapshots {
        for state in ["closed", "open", "half-open"] {
            let _ = writeln!(
                out,
                "leakc_router_breaker_state{{shard=\"{addr}\",state=\"{state}\"}} {}",
                u64::from(*label == state)
            );
        }
    }
    let per_shard: [(&str, &str, ShardCounter); 4] = [
        (
            "leakc_router_shard_failures_total",
            "Transport failures recorded against the shard.",
            |s| s.2.failures,
        ),
        (
            "leakc_router_shard_opened_total",
            "Closed-to-open breaker transitions.",
            |s| s.2.opened,
        ),
        (
            "leakc_router_shard_restarts_total",
            "Epoch jumps observed (shard restarted behind its address).",
            |s| s.3,
        ),
        (
            "leakc_router_shard_served_total",
            "Terminal responses the shard produced via this router.",
            |s| s.4,
        ),
    ];
    for (name, help, read) in per_shard {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        for snap in &snapshots {
            let _ = writeln!(out, "{name}{{shard=\"{}\"}} {}", snap.0, read(snap));
        }
    }

    let sums = scrape_fleet(inner);
    push_family(
        &mut out,
        "leakc_fleet_shards_reporting",
        "gauge",
        "Shards that answered the aggregation scrape.",
        sums.reporting,
    );
    push_family(
        &mut out,
        "leakc_fleet_requests_admitted_total",
        "counter",
        "Fleet-wide requests admitted (summed).",
        sums.admitted,
    );
    push_family(
        &mut out,
        "leakc_fleet_requests_served_total",
        "counter",
        "Fleet-wide requests served (summed).",
        sums.served,
    );
    push_family(
        &mut out,
        "leakc_fleet_requests_shed_total",
        "counter",
        "Fleet-wide requests shed (summed).",
        sums.shed,
    );
    push_family(
        &mut out,
        "leakc_fleet_requests_quarantined_total",
        "counter",
        "Fleet-wide quarantined panics (summed).",
        sums.panicked,
    );
    push_family(
        &mut out,
        "leakc_fleet_requests_coalesced_total",
        "counter",
        "Fleet-wide coalesced twins (summed).",
        sums.coalesced,
    );
    push_family(
        &mut out,
        "leakc_fleet_queue_depth",
        "gauge",
        "Fleet-wide queued requests (summed).",
        sums.queue_depth,
    );
    push_family(
        &mut out,
        "leakc_fleet_checks_total",
        "counter",
        "Fleet-wide analyses served (summed).",
        sums.checks,
    );
    push_family(
        &mut out,
        "leakc_fleet_cache_hits_total",
        "counter",
        "Fleet-wide summary-cache hits (summed).",
        sums.cache_hits,
    );
    push_family(
        &mut out,
        "leakc_fleet_cache_misses_total",
        "counter",
        "Fleet-wide summary-cache misses (summed).",
        sums.cache_misses,
    );
    out
}

fn route_connection(stream: TcpStream, inner: &Arc<RouterInner>) {
    let mut reader = BufReader::new(&stream);
    let mut writer = &stream;
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(Frame::Line(line) | Frame::Unterminated(line)) => line,
            Ok(Frame::Oversized) => {
                inner.telemetry.malformed.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut writer, &render_oversized());
                return;
            }
            Ok(Frame::Closed) | Err(_) => return,
        };
        if line.trim().is_empty() {
            continue;
        }
        let line = line.trim_end();
        let response = match parse_request(line) {
            // Byte-for-byte the same refusal a shard renders, so a
            // routed fleet and a bare shard are indistinguishable to
            // clients even on the error path.
            Err(e) => {
                inner.telemetry.malformed.fetch_add(1, Ordering::Relaxed);
                render_error(&None, &format!("malformed request: {e}"))
            }
            Ok(Request::Health) => render_router_health(inner),
            Ok(Request::Stats) => render_router_stats(inner),
            Ok(Request::Metrics) => render_metrics_ok(&render_router_metrics(inner)),
            Ok(Request::Shutdown) => {
                inner.shutdown_requested.store(true, Ordering::SeqCst);
                "{\"status\": \"ok\", \"state\": \"draining\", \"role\": \"router\"}".to_string()
            }
            Ok(req) => {
                inner.in_flight.fetch_add(1, Ordering::SeqCst);
                let response = route_request(inner, req, line);
                inner.in_flight.fetch_sub(1, Ordering::SeqCst);
                response
            }
        };
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

impl Router {
    /// Binds the listener, builds the ring and breakers, and starts the
    /// accept loop plus the health prober.
    ///
    /// # Errors
    ///
    /// No shards, or an unusable listen address (usage errors).
    pub fn start(options: &RouteOptions) -> Result<Router, LeakcError> {
        if options.shards.is_empty() {
            return Err(LeakcError::Usage(
                "route: at least one --shard HOST:PORT is required".to_string(),
            ));
        }
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| LeakcError::Usage(format!("route: cannot bind {}: {e}", options.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| LeakcError::Internal(format!("route: no local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| LeakcError::Internal(format!("route: set_nonblocking: {e}")))?;

        let breaker_config = BreakerConfig {
            failure_threshold: options.breaker_failures.max(1),
            cooldown: Duration::from_millis(options.breaker_cooldown_ms),
        };
        let endpoints = options
            .shards
            .iter()
            .map(|addr| Endpoint {
                addr: addr.clone(),
                breaker: Mutex::new(CircuitBreaker::new(breaker_config)),
                draining: AtomicBool::new(false),
                last_state: Mutex::new("unknown".to_string()),
                identity: Mutex::new(String::new()),
                epoch: AtomicU64::new(0),
                restarts: AtomicU64::new(0),
                served: AtomicU64::new(0),
                idle: Mutex::new(Vec::new()),
            })
            .collect::<Vec<_>>();
        let inner = Arc::new(RouterInner {
            ring: HashRing::new(endpoints.len(), options.vnodes.max(1)),
            endpoints,
            options: options.clone(),
            telemetry: RouterTelemetry::default(),
            start: Instant::now(),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            in_flight: AtomicU64::new(0),
        });

        let metrics_listener = match &options.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| {
                    LeakcError::Usage(format!("route: cannot bind metrics addr {addr}: {e}"))
                })?;
                l.set_nonblocking(true)
                    .map_err(|e| LeakcError::Internal(format!("route: set_nonblocking: {e}")))?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());

        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::spawn(move || {
            while !accept_inner.stop.load(Ordering::SeqCst) {
                let mut idle = true;
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let conn_inner = Arc::clone(&accept_inner);
                        std::thread::spawn(move || route_connection(stream, &conn_inner));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
                if let Some(metrics) = &metrics_listener {
                    match metrics.accept() {
                        Ok((stream, _)) => {
                            idle = false;
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_nodelay(true);
                            let conn_inner = Arc::clone(&accept_inner);
                            std::thread::spawn(move || {
                                serve_http_metrics(stream, || render_router_metrics(&conn_inner));
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(_) => {}
                    }
                }
                if idle {
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });
        let probe_inner = Arc::clone(&inner);
        let probe_handle = std::thread::spawn(move || {
            while !probe_inner.stop.load(Ordering::SeqCst) {
                probe_endpoints(&probe_inner);
                // Sleep in small slices so drain() never waits out a
                // long probe interval just to join this thread.
                let until = Instant::now()
                    + Duration::from_millis(probe_inner.options.probe_interval_ms.max(1));
                while Instant::now() < until && !probe_inner.stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });

        Ok(Router {
            inner,
            accept_handle: Some(accept_handle),
            probe_handle: Some(probe_handle),
            local_addr,
            metrics_addr,
        })
    }

    /// The bound listen address (resolves `--addr` port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `GET /metrics` address, when `--metrics-addr` was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// `true` once a protocol `shutdown` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Requests a graceful drain (the in-process twin of SIGTERM).
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Graceful drain: stop accepting, wait (bounded) for in-flight
    /// requests to finish routing, and return whether none were lost.
    pub fn drain(mut self) -> bool {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.probe_handle.take() {
            let _ = handle.join();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        let clean = loop {
            if self.inner.in_flight.load(Ordering::SeqCst) == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        // Close the idle shard connections now rather than when the
        // last client connection lets go of the router.
        for ep in &self.inner.endpoints {
            lock_resilient(&ep.idle).clear();
        }
        clean
    }
}

/// The blocking `leakc route` entry point: binds, prints the endpoint,
/// loops until a signal or protocol `shutdown`, drains, and reports.
///
/// # Errors
///
/// Bind/usage failures (see [`Router::start`]).
pub fn run_route(options: &RouteOptions) -> Result<CliOutput, LeakcError> {
    let router = Router::start(options)?;
    println!("leakc route: listening on {}", router.local_addr());
    if let Some(addr) = router.metrics_addr() {
        println!("leakc route: metrics on {addr}");
    }
    println!(
        "leakc route: fleet of {} shard(s): {}",
        options.shards.len(),
        options.shards.join(", ")
    );
    let _ = std::io::stdout().flush();
    while !router.shutdown_requested() && !crate::serve::signal_shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let inner = Arc::clone(&router.inner);
    let clean = router.drain();
    let t = &inner.telemetry;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "leakc route: drained{} — routed={} retries={} hedges={} hedge_wins={} unavailable={}",
        if clean {
            ""
        } else {
            " (deadline hit; some responses may be lost)"
        },
        t.routed.load(Ordering::Relaxed),
        t.retries.load(Ordering::Relaxed),
        t.hedges.load(Ordering::Relaxed),
        t.hedge_wins.load(Ordering::Relaxed),
        t.unavailable.load(Ordering::Relaxed),
    );
    Ok(CliOutput::clean(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{ServeOptions, Server};
    use std::io::BufRead;

    const LEAKY: &str = "\
class Cache { Object[] items; int n;
  void add(Object o) { items[n] = o; n = n + 1; } }
class Main {
  static void main() {
    Cache c = new Cache(); c.items = new Object[1024];
    @check while (nondet()) { Object o = new Object(); c.add(o); } } }";

    fn shard(name: &str) -> Server {
        Server::start(&ServeOptions {
            shard: Some(name.to_string()),
            ..ServeOptions::default()
        })
        .unwrap()
    }

    fn client(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        (reader, stream)
    }

    fn roundtrip(reader: &mut BufReader<TcpStream>, writer: &mut TcpStream, req: &str) -> String {
        writer.write_all(req.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn check_line(id: u64) -> String {
        format!(
            r#"{{"kind": "check", "id": {id}, "source": "{}"}}"#,
            json_escape(LEAKY)
        )
    }

    #[test]
    fn equal_deltas_under_different_ids_share_a_primary() {
        let delta = |id: &str| {
            parse_request(&format!(
                r#"{{"kind": "delta"{id}, "source": "{}", "changed": ["Main.main"]}}"#,
                json_escape(LEAKY)
            ))
            .unwrap()
        };
        let ring = HashRing::new(3, 64);
        let mut first = delta(r#", "id": "edit-1""#);
        let mut second = delta(r#", "id": 2"#);
        let mut idless = delta("");
        let key = routing_key(&mut first);
        assert_eq!(key, routing_key(&mut second));
        // An id-less frame keys exactly as before: on its canonical
        // rendering.
        assert_eq!(key, routing_key(&mut idless));
        assert_eq!(key, route_key(render_request(&idless).as_bytes()));
        assert_eq!(
            ring.preference(key)[0],
            ring.preference(routing_key(&mut second))[0]
        );
        // Keying leaves the request as it was.
        assert_eq!(first, delta(r#", "id": "edit-1""#));
    }

    #[test]
    fn routes_checks_and_forwards_shard_responses_verbatim() {
        let a = shard("a");
        let b = shard("b");
        let router = Router::start(&RouteOptions {
            shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
            ..RouteOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(router.local_addr());

        // The routed response is exactly what a bare shard renders.
        let direct = {
            let (mut r, mut w) = client(a.local_addr());
            roundtrip(&mut r, &mut w, &check_line(1))
        };
        let routed = roundtrip(&mut reader, &mut writer, &check_line(1));
        assert_eq!(routed, direct);
        assert!(routed.contains("\"exit_code\": 1"), "{routed}");

        // Same source → same key → same shard: stats shows exactly one
        // shard served both repeats.
        let again = roundtrip(&mut reader, &mut writer, &check_line(1));
        assert_eq!(again, routed);
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"routed\": 2"), "{stats}");

        // Malformed lines get the same refusal a shard would render.
        let bad = roundtrip(&mut reader, &mut writer, "this is not json");
        assert!(bad.contains("malformed request"), "{bad}");

        let health = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
        assert!(health.contains("\"role\": \"router\""), "{health}");
        assert!(health.contains("\"shards\": 2"), "{health}");

        assert!(router.drain());
        let _ = a.drain();
        let _ = b.drain();
    }

    #[test]
    fn retries_onto_the_surviving_replica_when_a_shard_dies() {
        let a = shard("a");
        let b = shard("b");
        let dead_addr = a.local_addr();
        let _ = a.drain(); // kill shard a: its port now refuses connections
        let router = Router::start(&RouteOptions {
            shards: vec![dead_addr.to_string(), b.local_addr().to_string()],
            backoff_ms: 1,
            ..RouteOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(router.local_addr());
        // Whatever the ring picks first, every check must come back
        // terminal off the surviving shard.
        for id in 0..6 {
            let resp = roundtrip(&mut reader, &mut writer, &check_line(id));
            assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        }
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"routed\": 6"), "{stats}");
        assert!(router.drain());
        let _ = b.drain();
    }

    #[test]
    fn all_shards_dead_yields_a_typed_unavailable_not_a_hang() {
        let a = shard("a");
        let dead_addr = a.local_addr();
        let _ = a.drain();
        let router = Router::start(&RouteOptions {
            shards: vec![dead_addr.to_string()],
            retries: 2,
            backoff_ms: 1,
            deadline_ms: Some(2_000),
            ..RouteOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(router.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, &check_line(1));
        assert!(
            resp.starts_with("{\"id\": 1, \"status\": \"unavailable\""),
            "{resp}"
        );
        assert!(router.drain());
    }

    #[test]
    fn poisoned_breaker_does_not_kill_the_router() {
        let a = shard("a");
        let router = Router::start(&RouteOptions {
            shards: vec![a.local_addr().to_string()],
            ..RouteOptions::default()
        })
        .unwrap();
        // Poison the breaker and last_state mutexes the way a panicking
        // prober or hedge thread would: panic while holding the guard.
        let inner = Arc::clone(&router.inner);
        let poisoner = std::thread::spawn(move || {
            let _breaker = inner.endpoints[0].breaker.lock().unwrap();
            let _state = inner.endpoints[0].last_state.lock().unwrap();
            panic!("poison both locks");
        });
        assert!(poisoner.join().is_err(), "poisoner must panic");
        assert!(router.inner.endpoints[0].breaker.lock().is_err());

        // Routing, stats, and metrics must all still answer: every lock
        // site goes through `lock_resilient`, which adopts the poisoned
        // state instead of propagating the panic.
        let (mut reader, mut writer) = client(router.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, &check_line(1));
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"routed\": 1"), "{stats}");
        let metrics = roundtrip(&mut reader, &mut writer, r#"{"kind": "metrics"}"#);
        assert!(metrics.contains("leakc_router_breaker_state"), "{metrics}");
        assert!(router.drain());
        let _ = a.drain();
    }

    #[test]
    fn metrics_verb_and_http_listener_expose_the_fleet_aggregate() {
        let a = shard("a");
        let b = shard("b");
        let router = Router::start(&RouteOptions {
            shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..RouteOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(router.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, &check_line(1));
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");

        let metrics = roundtrip(&mut reader, &mut writer, r#"{"kind": "metrics"}"#);
        let text = crate::protocol::parse_metrics_response(&metrics).expect("metrics frame");
        assert!(
            text.contains("# TYPE leakc_router_routed_total counter"),
            "{text}"
        );
        assert!(text.contains("leakc_router_routed_total 1"), "{text}");
        assert!(text.contains("leakc_fleet_shards_reporting 2"), "{text}");
        assert!(
            text.contains("leakc_fleet_requests_served_total 1"),
            "{text}"
        );
        assert!(text.contains("leakc_router_breaker_state{shard="), "{text}");

        // The same exposition comes back raw over plain HTTP.
        let http_addr = router.metrics_addr().expect("metrics listener bound");
        let mut stream = TcpStream::connect(http_addr).expect("connect metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .expect("write request");
        let mut body = String::new();
        std::io::Read::read_to_string(&mut stream, &mut body).expect("read response");
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("leakc_router_up 1"), "{body}");

        assert!(router.drain());
        let _ = a.drain();
        let _ = b.drain();
    }

    #[test]
    fn draining_shard_is_diverted_from_after_one_refusal() {
        let a = shard("a");
        let b = shard("b");
        let router = Router::start(&RouteOptions {
            shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
            backoff_ms: 1,
            // Slow prober: the request path's own refusal handling must
            // flip the draining flag, not the background probe.
            probe_interval_ms: 60_000,
            ..RouteOptions::default()
        })
        .unwrap();
        // Drain shard a via the protocol; it stays up but refuses work.
        {
            let (mut r, mut w) = client(a.local_addr());
            let resp = roundtrip(&mut r, &mut w, r#"{"kind": "shutdown"}"#);
            assert!(resp.contains("draining"), "{resp}");
        }
        let (mut reader, mut writer) = client(router.local_addr());
        for id in 0..6 {
            let resp = roundtrip(&mut reader, &mut writer, &check_line(id));
            assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        }
        assert!(router.drain());
        let _ = a.drain();
        let _ = b.drain();
    }
}
