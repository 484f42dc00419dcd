//! `leakc serve` — the long-running analysis daemon.
//!
//! Transport wiring over [`leakchecker::ServeCore`]: a TCP listener
//! (and optionally a unix socket) accepts line-delimited JSON requests
//! (see [`crate::protocol`]), inline kinds (`health`, `stats`,
//! `shutdown`) are answered without queueing so they work under
//! overload, and work kinds (`check`, `panic`) go through the core's
//! bounded admission queue — shed with a typed `overloaded` response
//! when the queue is full, refused with `draining` once shutdown has
//! begun. Each admitted request executes inside
//! `parallel_map_isolated`, so a panicking request is quarantined into
//! an `internal` response while the daemon keeps serving.
//!
//! Graceful drain (SIGTERM, ctrl-c, or a `shutdown` request): stop
//! accepting connections, refuse new submissions, let queued and
//! in-flight requests finish, wait for their responses to reach the
//! sockets, then report final counters and exit 0.

use crate::protocol::{
    parse_request, read_frame, readdress_response, render_check_ok, render_delta_ok,
    render_draining, render_error, render_internal, render_metrics_ok, render_overloaded,
    render_oversized, write_frame, CheckOverrides, Frame, Request, MAX_FRAME_BYTES,
};
use crate::{CliOutput, LeakcError};
use leakchecker::governor::{parse_fault_plan, GovernorConfig};
use leakchecker::{
    cacheable_config, check, render_all, CheckTarget, DetectorConfig, ServeConfig, ServeCore,
    SubmitError, SummaryCache, TargetKeys,
};
use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Flags of the `serve` subcommand.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// `--addr HOST:PORT` (port 0 = ephemeral; the bound address is
    /// printed on startup).
    pub addr: String,
    /// `--socket PATH` — additionally listen on a unix domain socket.
    pub socket: Option<String>,
    /// `--queue N` — admission-queue bound; requests beyond it are shed.
    pub queue: usize,
    /// `--workers N` — analysis worker threads (0 = machine width).
    pub workers: usize,
    /// `--shard NAME` — this daemon's fleet identity, echoed in
    /// `health`/`stats` frames so a router can tell replicas apart.
    pub shard: Option<String>,
    /// `--epoch N` — incarnation counter for the shard identity. A
    /// restarted shard should be started with a higher epoch; routers
    /// treat an epoch change as "same slot, fresh process" (warm state
    /// such as served counters starts over).
    pub epoch: u64,
    /// `--deadline-ms N` — operator ceiling on per-request analysis
    /// time. Combined with any request-carried `deadline_ms` by taking
    /// the minimum (see `GovernorConfig::tighten_deadline`).
    pub deadline_ms: Option<u64>,
    /// `--cache DIR` — durable summary cache shared by every worker:
    /// replayable checks whose analysis-visible content is unchanged
    /// answer from the store, and the `delta` verb re-checks
    /// changed-method patches warm.
    pub cache: Option<String>,
    /// `--metrics-addr HOST:PORT` — additionally serve the Prometheus
    /// text exposition raw over plain `GET /metrics` on this address
    /// (the `{"kind": "metrics"}` protocol verb is always available).
    pub metrics_addr: Option<String>,
    /// In-flight request coalescing (`--no-coalesce` disables it):
    /// identical deterministic checks admitted while a twin is queued
    /// or running attach to one computation.
    pub coalesce: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let core = ServeConfig::default();
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            socket: None,
            queue: core.capacity,
            workers: core.workers,
            shard: None,
            epoch: 0,
            deadline_ms: None,
            cache: None,
            metrics_addr: None,
            coalesce: true,
        }
    }
}

/// Set by the SIGTERM/SIGINT handler; polled by [`run_serve`].
static SIGNAL_SHUTDOWN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_sig: i32) {
    // Only async-signal-safe work here: flip the flag, nothing else.
    SIGNAL_SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful drain.
/// Called by the binary before entering [`run_serve`]; a no-op on
/// non-unix targets (ctrl-c then kills the process, losing only the
/// drain courtesy, never accepted work — responses are written as each
/// request completes).
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

/// `true` once a termination signal has been observed.
pub fn signal_shutdown_requested() -> bool {
    SIGNAL_SHUTDOWN.load(Ordering::SeqCst)
}

/// Fixed upper bounds (microseconds) for the per-phase latency
/// histograms exposed on `/metrics`. Fixed — never derived from the
/// data — so two scrapes of any two shards are bucket-compatible and
/// the exposition is byte-stable for a given counter state. 1-2.5-5 per
/// decade, rendered as seconds (`le="0.00001"` … `le="10"` plus `+Inf`).
const LATENCY_BUCKETS_US: [u64; 19] = [
    10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000,
    500_000, 1_000_000, 2_500_000, 5_000_000, 10_000_000,
];

/// Phase labels, in `RunStats` phase order (matches the histogram
/// array in [`Telemetry`]).
const PHASE_NAMES: [&str; 6] = [
    "callgraph",
    "effects",
    "flows",
    "contexts",
    "refine",
    "matching",
];

/// One fixed-bucket latency histogram: non-cumulative per-bucket
/// counts (the last slot is the `+Inf` overflow) plus the running sum.
struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    sum_us: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    fn observe_secs(&self, secs: f64) {
        let us = (secs * 1e6) as u64;
        let slot = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[slot].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }
}

/// Aggregate analysis telemetry, accumulated across served checks and
/// exposed by the `stats` request kind.
#[derive(Default)]
struct Telemetry {
    checks: AtomicU64,
    /// Checks that served a degraded (budget/deadline/fallback) result.
    degraded_checks: AtomicU64,
    // Per-phase totals in microseconds, in RunStats phase order.
    callgraph_us: AtomicU64,
    effects_us: AtomicU64,
    flows_us: AtomicU64,
    contexts_us: AtomicU64,
    refine_us: AtomicU64,
    matching_us: AtomicU64,
    /// Per-phase fixed-bucket latency histograms, in [`PHASE_NAMES`]
    /// order, feeding the `leakc_phase_seconds` exposition family.
    phase_hist: [LatencyHistogram; 6],
    // Witness-layer counters (only move when a request asks for
    // `"explain": true`): derivation trace events recorded by the
    // demand engine, and escape chains rendered into responses.
    trace_events: AtomicU64,
    witness_chains: AtomicU64,
    // Effects-fixpoint counters: designated-loop rounds across served checks,
    // and checks whose effect summary hit the inlining depth cap.
    effects_rounds: AtomicU64,
    effects_truncated: AtomicU64,
}

impl Telemetry {
    fn add_secs(field: &AtomicU64, secs: f64) {
        field.fetch_add((secs * 1e6) as u64, Ordering::Relaxed);
    }

    fn phases_json(&self) -> String {
        let ms = |field: &AtomicU64| field.load(Ordering::Relaxed) / 1000;
        format!(
            "{{\"callgraph_ms\": {}, \"effects_ms\": {}, \"flows_ms\": {}, \
             \"contexts_ms\": {}, \"refine_ms\": {}, \"matching_ms\": {}, \
             \"effects_rounds\": {}, \"effects_truncated\": {}}}",
            ms(&self.callgraph_us),
            ms(&self.effects_us),
            ms(&self.flows_us),
            ms(&self.contexts_us),
            ms(&self.refine_us),
            ms(&self.matching_us),
            self.effects_rounds.load(Ordering::Relaxed),
            self.effects_truncated.load(Ordering::Relaxed),
        )
    }

    fn witness_json(&self) -> String {
        format!(
            "{{\"trace_events\": {}, \"chains\": {}}}",
            self.trace_events.load(Ordering::Relaxed),
            self.witness_chains.load(Ordering::Relaxed),
        )
    }
}

struct Inner {
    core: ServeCore<Request, String>,
    telemetry: Arc<Telemetry>,
    start: Instant,
    /// Fleet identity (`--shard`/`--epoch`), echoed in health/stats
    /// frames; `", "shard": ..., "epoch": N"` or empty when unnamed.
    identity_fragment: String,
    stop_accept: AtomicBool,
    shutdown_requested: AtomicBool,
    /// Responses admitted but not yet flushed to their socket; drain
    /// waits for this to reach zero so no accepted request loses its
    /// answer to process exit.
    pending_replies: AtomicU64,
    /// The shared summary cache (`--cache DIR`), also read by the
    /// `stats` verb for hit/miss/invalidation/corruption counters.
    cache: Arc<Option<Mutex<SummaryCache>>>,
    /// Whether deterministic twin checks coalesce onto one computation.
    coalesce: bool,
}

/// Appends one single-sample metric family (`# HELP` + `# TYPE` +
/// sample). Every family carries both comment lines — the bench-side
/// strict parser rejects bare samples. Shared with the router's
/// exposition.
pub(crate) fn push_family(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

/// A bucket bound in seconds, rendered the way `f64` displays it
/// (`0.001`, `0.5`, `10`) so the `le` labels are byte-stable.
fn secs_label(us: u64) -> String {
    format!("{}", us as f64 / 1e6)
}

/// Renders the `leakc_phase_seconds` histogram family: one series per
/// analysis phase, cumulative fixed buckets per the Prometheus text
/// format (`_bucket{le=...}`, `_sum`, `_count`).
fn push_phase_histograms(out: &mut String, telemetry: &Telemetry) {
    let name = "leakc_phase_seconds";
    let _ = writeln!(
        out,
        "# HELP {name} Per-phase analysis latency across served checks."
    );
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (phase, hist) in PHASE_NAMES.iter().zip(&telemetry.phase_hist) {
        let mut cumulative = 0u64;
        for (slot, bound) in LATENCY_BUCKETS_US.iter().enumerate() {
            cumulative += hist.buckets[slot].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{phase=\"{phase}\",le=\"{}\"}} {cumulative}",
                secs_label(*bound)
            );
        }
        cumulative += hist.buckets[LATENCY_BUCKETS_US.len()].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "{name}_sum{{phase=\"{phase}\"}} {:.6}",
            hist.sum_us.load(Ordering::Relaxed) as f64 / 1e6
        );
        let _ = writeln!(out, "{name}_count{{phase=\"{phase}\"}} {cumulative}");
    }
}

/// The daemon's full Prometheus text exposition: admission counters,
/// coalescing, degradation/quarantine, cache effectiveness, and the
/// per-phase latency histograms. Served by the `metrics` protocol verb
/// (JSON-wrapped) and raw on the `--metrics-addr` listener.
fn metrics_text(inner: &Inner) -> String {
    let stats = inner.core.stats();
    let telemetry = &inner.telemetry;
    let mut out = String::new();
    push_family(&mut out, "leakc_up", "gauge", "Daemon liveness.", 1);
    push_family(
        &mut out,
        "leakc_queue_depth",
        "gauge",
        "Requests waiting for a worker.",
        stats.queue_depth as u64,
    );
    push_family(
        &mut out,
        "leakc_requests_admitted_total",
        "counter",
        "Requests admitted into the bounded queue.",
        stats.admitted,
    );
    push_family(
        &mut out,
        "leakc_requests_served_total",
        "counter",
        "Requests executed to completion.",
        stats.served,
    );
    push_family(
        &mut out,
        "leakc_requests_shed_total",
        "counter",
        "Requests shed by admission control.",
        stats.shed,
    );
    push_family(
        &mut out,
        "leakc_requests_quarantined_total",
        "counter",
        "Requests whose handler panicked and was quarantined.",
        stats.panicked,
    );
    push_family(
        &mut out,
        "leakc_requests_coalesced_total",
        "counter",
        "Requests answered by attaching to an in-flight twin.",
        stats.coalesced,
    );
    push_family(
        &mut out,
        "leakc_checks_total",
        "counter",
        "Check/delta analyses served.",
        telemetry.checks.load(Ordering::Relaxed),
    );
    push_family(
        &mut out,
        "leakc_checks_degraded_total",
        "counter",
        "Checks that served a degraded (budget/deadline) result.",
        telemetry.degraded_checks.load(Ordering::Relaxed),
    );
    if let Some(cache) = inner.cache.as_ref() {
        let cs = lock_cache(cache).stats;
        push_family(
            &mut out,
            "leakc_cache_hits_total",
            "counter",
            "Summary-cache warm hits.",
            cs.hits,
        );
        push_family(
            &mut out,
            "leakc_cache_misses_total",
            "counter",
            "Summary-cache misses (cold runs).",
            cs.misses,
        );
        push_family(
            &mut out,
            "leakc_cache_invalidated_total",
            "counter",
            "Stored summaries invalidated by content drift.",
            cs.invalidated,
        );
        push_family(
            &mut out,
            "leakc_cache_corrupt_recovered_total",
            "counter",
            "Corrupt cache entries recovered from.",
            cs.corrupt_recovered,
        );
        push_family(
            &mut out,
            "leakc_cache_syncs_total",
            "counter",
            "fsyncs of the summary-cache file (one per store commit).",
            cs.syncs,
        );
    }
    push_phase_histograms(&mut out, telemetry);
    out
}

/// A running daemon (in-process handle; the binary and the soak
/// harness both drive this).
pub struct Server {
    inner: Arc<Inner>,
    accept_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    socket_path: Option<String>,
}

/// Final counters reported by [`Server::drain`].
#[derive(Copy, Clone, Debug)]
pub struct ServeSummary {
    /// Final core counters.
    pub stats: leakchecker::ServeStats,
    /// Whether every accepted request's response reached its socket
    /// before the drain deadline.
    pub drained_cleanly: bool,
}

/// What serving one `check`/`delta` request produced.
struct CheckOutcome {
    exit_code: i32,
    reports: u64,
    degraded: bool,
    output: String,
    /// Targets answered from the summary cache.
    warm: u64,
    /// Stored summaries invalidated by this request's content drift.
    invalidated: u64,
    /// Stored methods whose exact content hash drifted (verified
    /// against the store, not trusted from the client's `changed`
    /// field); computed for `delta` only, empty without a cache.
    changed: Vec<String>,
}

/// Runs the detector on inline source: every `@check` loop and
/// `@region` method, governed by the request's overrides. `jobs` is
/// pinned to 1 — daemon parallelism comes from serving requests
/// concurrently, and a single-threaded analysis keeps each response
/// byte-identical however many workers the daemon runs.
///
/// With a summary cache, replayable targets (no witnesses, faults or
/// deadlines in play) answer from the store when their content key
/// matches and are recorded after a cold run — so `check` warms the
/// cache and `delta` re-checks against it; the two verbs differ only
/// in the accounting their responses carry, so only a `delta` pays for
/// the changed set.
fn run_check_source(
    telemetry: &Telemetry,
    source: &str,
    overrides: &CheckOverrides,
    shard_deadline_ms: Option<u64>,
    cache: Option<&Mutex<SummaryCache>>,
    delta: bool,
) -> Result<CheckOutcome, String> {
    let defaults = GovernorConfig::default();
    let faults = match &overrides.inject {
        Some(spec) => parse_fault_plan(spec)?,
        None => Default::default(),
    };
    let config = DetectorConfig {
        // The request's remaining end-to-end budget (as rewritten by
        // the router on each hop) and the shard's own ceiling combine
        // by minimum, then flow into every QueryTicket of the run.
        governor: GovernorConfig {
            query_budget: overrides.query_budget.unwrap_or(defaults.query_budget),
            max_retries: overrides.max_retries.unwrap_or(defaults.max_retries),
            deadline_ms: overrides.deadline_ms,
            faults,
        }
        .tighten_deadline(shard_deadline_ms),
        jobs: 1,
        witnesses: overrides.explain,
        ..DetectorConfig::default()
    };
    let unit = leakchecker_frontend::compile(source).map_err(|e| e.to_string())?;
    let mut targets: Vec<CheckTarget> = unit
        .checked_loops
        .iter()
        .map(|&l| CheckTarget::Loop(l))
        .collect();
    targets.extend(unit.region_methods.iter().map(|&m| CheckTarget::Region(m)));
    if targets.is_empty() {
        return Err("no @check loop or @region method in source".to_string());
    }
    // The cache only engages for runs whose output is a pure function
    // of the content key.
    let cache = cache.filter(|_| cacheable_config(&config));
    let mut keyed: Vec<Option<(u64, TargetKeys)>> = targets
        .iter()
        .map(|&target| {
            let cache = cache?;
            let resolved = leakchecker::target::resolve(&unit.program, target).ok()?;
            let keys = TargetKeys::new(resolved, config.callgraph, |digest| {
                lock_cache(cache).remembered_root(digest)
            });
            Some((keys.result_key(target, &config), keys))
        })
        .collect();
    // The verified changed set must be read before recording refreshes
    // the stored hashes.
    let changed = match (cache, keyed.iter_mut().flatten().next()) {
        (Some(cache), Some((_, keys))) if delta => {
            let keys = keys.program_keys();
            lock_cache(cache).changed_methods(keys)
        }
        _ => Vec::new(),
    };
    let mut output = String::new();
    let mut reports = 0u64;
    let mut degraded = false;
    let mut warm = 0u64;
    let mut invalidated = 0u64;
    for (target, mut keyed) in targets.into_iter().zip(keyed) {
        if let (Some(cache), Some((key, _))) = (cache, keyed.as_ref()) {
            if let Some(hit) = lock_cache(cache).lookup(*key) {
                reports += hit.reports_n;
                degraded |= hit.degraded;
                warm += 1;
                output.push_str(&hit.report);
                continue;
            }
        }
        let result = check(&unit.program, target, config).map_err(|e| e.to_string())?;
        if let (Some(cache), Some((key, keys))) = (cache, keyed.as_mut()) {
            // Degraded results depend on budget luck, not content —
            // never persist them. A failed disk commit degrades the
            // store to session-local (the in-memory view is updated
            // first); it must not fail the check.
            if !result.stats.is_degraded() {
                let entry =
                    crate::cached_target_of(&result, crate::json_fragment_of(target, &result));
                // Compose the full keys outside the store lock.
                keys.program_keys();
                let mut store = lock_cache(cache);
                let before = store.stats.invalidated;
                let _ = store.record_target(keys, *key, &entry);
                invalidated += store.stats.invalidated - before;
            }
        }
        reports += result.reports.len() as u64;
        degraded |= result.stats.is_degraded();
        if overrides.explain {
            let chains: u64 = result
                .reports
                .iter()
                .map(|r| r.witnesses.len() as u64)
                .sum();
            telemetry
                .trace_events
                .fetch_add(result.traces.len() as u64, Ordering::Relaxed);
            telemetry
                .witness_chains
                .fetch_add(chains, Ordering::Relaxed);
            output.push_str(&leakchecker::report::render_all_explained(
                &result.program,
                &result.reports,
            ));
        } else {
            output.push_str(&render_all(&result.program, &result.reports));
        }
        let p = result.stats.phases;
        Telemetry::add_secs(&telemetry.callgraph_us, p.callgraph_secs);
        Telemetry::add_secs(&telemetry.effects_us, p.effects_secs);
        Telemetry::add_secs(&telemetry.flows_us, p.flows_secs);
        Telemetry::add_secs(&telemetry.contexts_us, p.contexts_secs);
        Telemetry::add_secs(&telemetry.refine_us, p.refine_secs);
        Telemetry::add_secs(&telemetry.matching_us, p.matching_secs);
        for (hist, secs) in telemetry.phase_hist.iter().zip([
            p.callgraph_secs,
            p.effects_secs,
            p.flows_secs,
            p.contexts_secs,
            p.refine_secs,
            p.matching_secs,
        ]) {
            hist.observe_secs(secs);
        }
        telemetry
            .effects_rounds
            .fetch_add(result.stats.effects_rounds as u64, Ordering::Relaxed);
        telemetry
            .effects_truncated
            .fetch_add(u64::from(result.stats.effects_truncated), Ordering::Relaxed);
    }
    telemetry.checks.fetch_add(1, Ordering::Relaxed);
    if degraded {
        telemetry.degraded_checks.fetch_add(1, Ordering::Relaxed);
    }
    let exit_code = if reports > 0 {
        crate::EXIT_LEAKS
    } else if degraded {
        crate::EXIT_DEGRADED
    } else {
        crate::EXIT_CLEAN
    };
    Ok(CheckOutcome {
        exit_code,
        reports,
        degraded,
        output,
        warm,
        invalidated,
        changed,
    })
}

/// Locks the shared store, recovering from a poisoned mutex: the store
/// is corruption-tolerant by design, so a panic in another worker is no
/// reason to stop serving cache answers.
fn lock_cache(cache: &Mutex<SummaryCache>) -> std::sync::MutexGuard<'_, SummaryCache> {
    cache
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Server {
    /// Binds the listeners and starts the worker pool.
    ///
    /// # Errors
    ///
    /// Address/socket bind failures (reported as usage errors: the
    /// operator passed an unusable endpoint).
    pub fn start(options: &ServeOptions) -> Result<Server, LeakcError> {
        let listener = TcpListener::bind(&options.addr)
            .map_err(|e| LeakcError::Usage(format!("serve: cannot bind {}: {e}", options.addr)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| LeakcError::Internal(format!("serve: no local addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| LeakcError::Internal(format!("serve: set_nonblocking: {e}")))?;

        #[cfg(unix)]
        let unix_listener = match &options.socket {
            Some(path) => {
                // A stale socket file from a previous run refuses the
                // bind; remove it first.
                let _ = std::fs::remove_file(path);
                let l = std::os::unix::net::UnixListener::bind(path)
                    .map_err(|e| LeakcError::Usage(format!("serve: cannot bind {path}: {e}")))?;
                l.set_nonblocking(true)
                    .map_err(|e| LeakcError::Internal(format!("serve: set_nonblocking: {e}")))?;
                Some(l)
            }
            None => None,
        };
        #[cfg(not(unix))]
        if options.socket.is_some() {
            return Err(LeakcError::Usage(
                "serve: --socket requires a unix platform".to_string(),
            ));
        }

        let metrics_listener = match &options.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| {
                    LeakcError::Usage(format!("serve: cannot bind metrics addr {addr}: {e}"))
                })?;
                l.set_nonblocking(true)
                    .map_err(|e| LeakcError::Internal(format!("serve: set_nonblocking: {e}")))?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = match &metrics_listener {
            Some(l) => Some(
                l.local_addr()
                    .map_err(|e| LeakcError::Internal(format!("serve: no metrics addr: {e}")))?,
            ),
            None => None,
        };

        let telemetry = Arc::new(Telemetry::default());
        let handler_telemetry = Arc::clone(&telemetry);
        let shard_deadline_ms = options.deadline_ms;
        let cache: Arc<Option<Mutex<SummaryCache>>> = Arc::new(match &options.cache {
            Some(dir) => Some(Mutex::new(
                SummaryCache::open(std::path::Path::new(dir)).map_err(|e| {
                    LeakcError::Usage(format!("serve: cannot open cache {dir}: {e}"))
                })?,
            )),
            None => None,
        });
        let handler_cache = Arc::clone(&cache);
        let core = ServeCore::start(
            ServeConfig {
                capacity: options.queue,
                workers: options.workers,
            },
            move |req: Request| match req {
                Request::Panic { id } => {
                    panic!(
                        "injected request panic{}",
                        match id {
                            Some(id) => format!(" (id {id})"),
                            None => String::new(),
                        }
                    )
                }
                Request::Check {
                    id,
                    source,
                    overrides,
                } => match run_check_source(
                    &handler_telemetry,
                    &source,
                    &overrides,
                    shard_deadline_ms,
                    handler_cache.as_ref().as_ref(),
                    false,
                ) {
                    Ok(o) => render_check_ok(&id, o.exit_code, o.reports, o.degraded, &o.output),
                    Err(message) => render_error(&id, &message),
                },
                Request::Delta {
                    id,
                    source,
                    // The client's edit hint is advisory; the response
                    // carries the set verified against stored hashes.
                    changed: _,
                    overrides,
                } => {
                    if handler_cache.is_none() {
                        return render_error(
                            &id,
                            "delta requires a summary cache (start with --cache DIR)",
                        );
                    }
                    match run_check_source(
                        &handler_telemetry,
                        &source,
                        &overrides,
                        shard_deadline_ms,
                        handler_cache.as_ref().as_ref(),
                        true,
                    ) {
                        Ok(o) => render_delta_ok(
                            &id,
                            o.exit_code,
                            o.reports,
                            o.degraded,
                            &crate::protocol::DeltaAccounting {
                                warm: o.warm,
                                invalidated: o.invalidated,
                                changed: &o.changed,
                            },
                            &o.output,
                        ),
                        Err(message) => render_error(&id, &message),
                    }
                }
                // Inline kinds never reach the queue; answering them
                // here anyway keeps the handler total.
                Request::Health | Request::Stats | Request::Metrics | Request::Shutdown => {
                    render_error(&None, "inline request kind reached the worker queue")
                }
            },
        );
        let inner = Arc::new(Inner {
            core,
            telemetry,
            start: Instant::now(),
            identity_fragment: match &options.shard {
                Some(name) => format!(
                    ", \"shard\": \"{}\", \"epoch\": {}",
                    crate::protocol::json_escape(name),
                    options.epoch
                ),
                None => String::new(),
            },
            stop_accept: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            pending_replies: AtomicU64::new(0),
            cache,
            coalesce: options.coalesce,
        });

        let accept_inner = Arc::clone(&inner);
        let accept_handle = std::thread::spawn(move || {
            while !accept_inner.stop_accept.load(Ordering::SeqCst) {
                let mut idle = true;
                // Responses are small line-delimited writes; without
                // NODELAY, Nagle + delayed ACK adds ~40-200ms per
                // roundtrip.
                match listener.accept() {
                    Ok((stream, _)) => {
                        idle = false;
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let conn_inner = Arc::clone(&accept_inner);
                        std::thread::spawn(move || serve_tcp_connection(stream, &conn_inner));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(_) => {}
                }
                #[cfg(unix)]
                if let Some(unix_listener) = &unix_listener {
                    match unix_listener.accept() {
                        Ok((stream, _)) => {
                            idle = false;
                            let _ = stream.set_nonblocking(false);
                            let conn_inner = Arc::clone(&accept_inner);
                            std::thread::spawn(move || serve_unix_connection(stream, &conn_inner));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(_) => {}
                    }
                }
                if let Some(metrics_listener) = &metrics_listener {
                    match metrics_listener.accept() {
                        Ok((stream, _)) => {
                            idle = false;
                            let _ = stream.set_nonblocking(false);
                            let _ = stream.set_nodelay(true);
                            let conn_inner = Arc::clone(&accept_inner);
                            std::thread::spawn(move || serve_metrics_http(stream, &conn_inner));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(_) => {}
                    }
                }
                if idle {
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        });

        Ok(Server {
            inner,
            accept_handle: Some(accept_handle),
            local_addr,
            metrics_addr,
            socket_path: options.socket.clone(),
        })
    }

    /// The bound TCP address (resolves `--addr` port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `--metrics-addr` listener, when one was requested.
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

    /// Graceful drain: stop accepting, refuse new submissions, wait for
    /// queued and in-flight requests to complete and their responses to
    /// be flushed (bounded wait), then return the final counters.
    pub fn drain(mut self) -> ServeSummary {
        self.inner.stop_accept.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.inner.core.begin_drain();
        let deadline = Instant::now() + Duration::from_secs(10);
        let drained_cleanly = loop {
            let stats = self.inner.core.stats();
            let pending = self.inner.pending_replies.load(Ordering::SeqCst);
            if stats.queue_depth == 0 && stats.served == stats.admitted && pending == 0 {
                break true;
            }
            if Instant::now() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        ServeSummary {
            stats: self.inner.core.stats(),
            drained_cleanly,
        }
    }
}

fn serve_tcp_connection(stream: TcpStream, inner: &Inner) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    serve_connection(reader, stream, inner);
}

/// Longest HTTP request or header line the `--metrics-addr` listener
/// reads; a scrape needs a few dozen bytes.
const MAX_HTTP_LINE_BYTES: usize = 8 << 10;

/// One `GET /metrics` scrape on a `--metrics-addr` listener: a minimal
/// HTTP/1.0 exchange serving the raw text exposition produced by
/// `render` (called only for a well-formed `GET /metrics`, so a fresh
/// snapshot is taken per scrape). Any other request line gets a 404, a
/// request or header line longer than [`MAX_HTTP_LINE_BYTES`] a 431.
/// One response per connection. Shared by the daemon and the router.
pub(crate) fn serve_http_metrics(stream: TcpStream, render: impl FnOnce() -> String) {
    // A scraper that never finishes its headers must not pin this
    // thread (the exposition is served inline, even mid-drain).
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut reader = BufReader::new(&stream);
    let mut oversized = false;
    let request_line = match read_frame(&mut reader, MAX_HTTP_LINE_BYTES) {
        Ok(Frame::Line(line) | Frame::Unterminated(line)) => line,
        Ok(Frame::Oversized) => {
            oversized = true;
            String::new()
        }
        Ok(Frame::Closed) | Err(_) => return,
    };
    // Drain the header block (bounded) so well-formed clients see the
    // response after their full request.
    let mut headers = 0;
    while !oversized && headers < 64 {
        match read_frame(&mut reader, MAX_HTTP_LINE_BYTES) {
            Ok(Frame::Line(header)) if !header.trim().is_empty() => headers += 1,
            Ok(Frame::Oversized) => oversized = true,
            _ => break,
        }
    }
    let path_ok = {
        let mut parts = request_line.split_whitespace();
        parts.next() == Some("GET") && parts.next() == Some("/metrics")
    };
    let (status, body) = if oversized {
        (
            "431 Request Header Fields Too Large",
            format!("request and header lines are limited to {MAX_HTTP_LINE_BYTES} bytes\n"),
        )
    } else if path_ok {
        ("200 OK", render())
    } else {
        ("404 Not Found", "only GET /metrics is served\n".to_string())
    };
    let mut writer = &stream;
    let _ = write!(
        writer,
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.flush();
}

fn serve_metrics_http(stream: TcpStream, inner: &Inner) {
    serve_http_metrics(stream, || metrics_text(inner));
}

#[cfg(unix)]
fn serve_unix_connection(stream: std::os::unix::net::UnixStream, inner: &Inner) {
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    serve_connection(reader, stream, inner);
}

/// Extracts the id a queued request will be answered under, so the
/// connection can render shed/quarantine responses for it.
fn request_reply_id(req: &Request) -> Option<String> {
    match req {
        Request::Panic { id } | Request::Check { id, .. } | Request::Delta { id, .. } => id.clone(),
        _ => None,
    }
}

/// The coalescing identity of a check: its id-less request fields —
/// source and effective budgets — hashed directly, without rendering a
/// second copy of the frame. The fields that make two id-less canonical
/// frames equal are exactly the fields hashed here.
fn coalesce_key(source: &str, overrides: &CheckOverrides) -> u64 {
    let mut h = leakchecker::cache::Fnv::new();
    h.str(source);
    h.u64(overrides.query_budget.map_or(0, |n| n as u64 + 1));
    h.u64(overrides.max_retries.map_or(0, |n| u64::from(n) + 1));
    h.finish()
}

fn serve_connection<R: Read, W: Write>(reader: R, mut writer: W, inner: &Inner) {
    let mut reader = BufReader::new(reader);
    loop {
        let line = match read_frame(&mut reader, MAX_FRAME_BYTES) {
            Ok(Frame::Line(line) | Frame::Unterminated(line)) => line,
            Ok(Frame::Oversized) => {
                let _ = write_frame(&mut writer, &render_oversized());
                return;
            }
            Ok(Frame::Closed) | Err(_) => return, // client closed (or died)
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = match parse_request(line.trim_end()) {
            Err(e) => render_error(&None, &format!("malformed request: {e}")),
            Ok(Request::Health) => {
                let stats = inner.core.stats();
                // The state is the core's DrainState verbatim — the
                // load-balancer contract is that `draining` appears
                // here the moment admission closes (a `shutdown`
                // request drains the core immediately, before the
                // process-exit path catches up), so routers stop
                // sending work early instead of eating refusals.
                format!(
                    "{{\"status\": \"ok\", \"state\": \"{}\"{}, \"queue_depth\": {}, \"uptime_ms\": {}}}",
                    inner.core.state().label(),
                    inner.identity_fragment,
                    stats.queue_depth,
                    inner.start.elapsed().as_millis()
                )
            }
            Ok(Request::Stats) => {
                let stats = inner.core.stats();
                let mut out = String::from("{\"status\": \"ok\"");
                let _ = write!(out, ", \"state\": \"{}\"", inner.core.state().label());
                out.push_str(&inner.identity_fragment);
                let _ = write!(out, ", \"admitted\": {}", stats.admitted);
                let _ = write!(out, ", \"served\": {}", stats.served);
                let _ = write!(out, ", \"shed\": {}", stats.shed);
                let _ = write!(out, ", \"panicked\": {}", stats.panicked);
                let _ = write!(out, ", \"coalesced\": {}", stats.coalesced);
                let _ = write!(out, ", \"queue_depth\": {}", stats.queue_depth);
                let _ = write!(
                    out,
                    ", \"checks\": {}",
                    inner.telemetry.checks.load(Ordering::Relaxed)
                );
                let _ = write!(out, ", \"phases\": {}", inner.telemetry.phases_json());
                let _ = write!(out, ", \"witness\": {}", inner.telemetry.witness_json());
                if let Some(cache) = inner.cache.as_ref() {
                    let cs = lock_cache(cache).stats;
                    let _ = write!(
                        out,
                        ", \"cache\": {{\"hits\": {}, \"misses\": {}, \"invalidated\": {}, \
                         \"corrupt_recovered\": {}}}",
                        cs.hits, cs.misses, cs.invalidated, cs.corrupt_recovered
                    );
                }
                let _ = write!(
                    out,
                    ", \"uptime_ms\": {}}}",
                    inner.start.elapsed().as_millis()
                );
                out
            }
            // Metrics are answered inline like health/stats — they
            // work under full load and keep answering mid-drain.
            Ok(Request::Metrics) => render_metrics_ok(&metrics_text(inner)),
            Ok(Request::Shutdown) => {
                inner.shutdown_requested.store(true, Ordering::SeqCst);
                // Close admission right here rather than waiting for
                // the serve loop to notice: health probes observe
                // `draining` immediately and routers divert traffic
                // before it can be refused.
                inner.core.begin_drain();
                "{\"status\": \"ok\", \"state\": \"draining\"}".to_string()
            }
            Ok(req) => {
                let id = request_reply_id(&req);
                // Identical deterministic checks coalesce onto one
                // computation. The identity key hashes the id-less
                // request fields — source plus effective config — so
                // twins match regardless of their ids; explain,
                // fault-injected and deadline-carrying runs never
                // coalesce (their output is not a pure function of
                // that key).
                let (req, key) = match req {
                    Request::Check {
                        source, overrides, ..
                    } if inner.coalesce
                        && overrides.inject.is_none()
                        && !overrides.explain
                        && overrides.deadline_ms.is_none() =>
                    {
                        let key = coalesce_key(&source, &overrides);
                        let canonical = Request::Check {
                            id: None,
                            source,
                            overrides,
                        };
                        (canonical, Some(key))
                    }
                    other => (other, None),
                };
                match inner.core.submit_coalesced(req, key) {
                    Err(SubmitError::Overloaded { queue_depth }) => {
                        render_overloaded(&id, queue_depth as u64)
                    }
                    Err(SubmitError::Draining) => render_draining(&id),
                    Ok((rx, _)) => {
                        // Count the admitted request as pending until
                        // its response is flushed, so drain never exits
                        // with an answer stuck in this thread.
                        inner.pending_replies.fetch_add(1, Ordering::SeqCst);
                        let response = match rx.recv() {
                            Ok(Ok(line)) => line,
                            Ok(Err(panic_msg)) => render_internal(&id, &panic_msg),
                            Err(_) => render_internal(&id, "worker lost"),
                        };
                        // The worker answered the id-less canonical
                        // twin; re-address the frame for this
                        // submitter so the bytes match an uncoalesced
                        // run exactly.
                        let response = if key.is_some() {
                            readdress_response(&id, &response)
                        } else {
                            response
                        };
                        let result = write_frame(&mut writer, &response);
                        inner.pending_replies.fetch_sub(1, Ordering::SeqCst);
                        if result.is_err() {
                            return;
                        }
                        continue;
                    }
                }
            }
        };
        if write_frame(&mut writer, &response).is_err() {
            return;
        }
    }
}

/// The blocking `leakc serve` entry point: binds, prints the endpoints,
/// loops until a signal or protocol `shutdown`, drains, and returns the
/// final summary as the command output.
///
/// # Errors
///
/// Bind failures (see [`Server::start`]).
pub fn run_serve(options: &ServeOptions) -> Result<CliOutput, LeakcError> {
    let server = Server::start(options)?;
    // Printed directly (not via CliOutput) so operators and scripts can
    // learn the bound port before the daemon blocks.
    println!("leakc serve: listening on {}", server.local_addr());
    if let Some(path) = &options.socket {
        println!("leakc serve: listening on unix:{path}");
    }
    if let Some(addr) = server.metrics_addr() {
        println!("leakc serve: metrics on {addr}");
    }
    println!(
        "leakc serve: queue bound {}, workers {}",
        options.queue, options.workers
    );
    let _ = std::io::stdout().flush();
    while !server.shutdown_requested() && !signal_shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }
    let summary = server.drain();
    let s = summary.stats;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "leakc serve: drained{} — admitted={} served={} shed={} panicked={} coalesced={}",
        if summary.drained_cleanly {
            ""
        } else {
            " (deadline hit; some responses may be lost)"
        },
        s.admitted,
        s.served,
        s.shed,
        s.panicked,
        s.coalesced
    );
    Ok(CliOutput::clean(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn quiet_panics<Ret>(f: impl FnOnce() -> Ret) -> Ret {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    const LEAKY: &str = "\
class Cache { Object[] items; int n;
  void add(Object o) { items[n] = o; n = n + 1; } }
class Main {
  static void main() {
    Cache c = new Cache(); c.items = new Object[1024];
    @check while (nondet()) { Object o = new Object(); c.add(o); } } }";

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

    #[test]
    fn daemon_serves_health_check_and_malformed_lines() {
        let server = Server::start(&ServeOptions::default()).unwrap();
        let (mut reader, mut writer) = client(server.local_addr());

        let health = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
        assert!(health.contains("\"state\": \"running\""), "{health}");

        let check = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(check.contains("\"status\": \"ok\""), "{check}");
        assert!(check.contains("\"exit_code\": 1"), "{check}");
        assert!(check.contains("\"reports\": 1"), "{check}");
        assert!(check.starts_with("{\"id\": 1, "), "{check}");

        let bad = roundtrip(&mut reader, &mut writer, "this is not json");
        assert!(bad.contains("\"status\": \"error\""), "{bad}");

        let missing = roundtrip(&mut reader, &mut writer, r#"{"kind": "check"}"#);
        assert!(missing.contains("missing field `source`"), "{missing}");

        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"served\": 1"), "{stats}");
        assert!(stats.contains("\"phases\""), "{stats}");

        let summary = server.drain();
        assert!(summary.drained_cleanly);
        assert_eq!(summary.stats.admitted, 1);
        assert_eq!(summary.stats.served, 1);
    }

    #[test]
    fn explain_override_renders_witnesses_and_moves_stats_counters() {
        let server = Server::start(&ServeOptions::default()).unwrap();
        let (mut reader, mut writer) = client(server.local_addr());

        // Plain check: no witness lines, witness counters stay zero.
        let plain = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(!plain.contains("escape chain"), "{plain}");
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(
            stats.contains("\"witness\": {\"trace_events\": 0, \"chains\": 0}"),
            "{stats}"
        );

        // Explained check: escape chains in the output, counters move.
        let explained = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 2, "source": "{}", "explain": true}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(explained.contains("\"exit_code\": 1"), "{explained}");
        assert!(explained.contains("escape chain:"), "{explained}");
        assert!(explained.contains("frontier:"), "{explained}");
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"trace_events\": "), "{stats}");
        assert!(
            !stats.contains("\"witness\": {\"trace_events\": 0,"),
            "explained check must move the trace counter: {stats}"
        );

        let summary = server.drain();
        assert!(summary.drained_cleanly);
    }

    #[test]
    fn governed_check_degrades_and_panic_kind_is_quarantined() {
        quiet_panics(|| {
            let server = Server::start(&ServeOptions::default()).unwrap();
            let (mut reader, mut writer) = client(server.local_addr());

            // A starved budget forces the Andersen fallback: exit 1
            // with the report still found, tagged degraded.
            let degraded = roundtrip(
                &mut reader,
                &mut writer,
                &format!(
                    r#"{{"kind": "check", "id": "d", "source": "{}", "query_budget": 1, "max_retries": 0}}"#,
                    crate::protocol::json_escape(LEAKY)
                ),
            );
            assert!(degraded.contains("\"degraded\": true"), "{degraded}");
            assert!(
                degraded.contains("(degraded: budget-exhausted)"),
                "{degraded}"
            );

            let panicked = roundtrip(&mut reader, &mut writer, r#"{"kind": "panic", "id": 9}"#);
            assert!(panicked.contains("\"status\": \"internal\""), "{panicked}");
            assert!(panicked.starts_with("{\"id\": 9, "), "{panicked}");

            // The daemon survives the quarantined request.
            let after = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
            assert!(after.contains("\"state\": \"running\""), "{after}");

            let summary = server.drain();
            assert!(summary.drained_cleanly);
            assert_eq!(summary.stats.panicked, 1);
            // `health` is answered inline by the connection thread; only
            // the check and the panic went through the queue.
            assert_eq!(summary.stats.served, 2);
        });
    }

    #[test]
    fn overload_sheds_with_a_typed_response() {
        quiet_panics(|| {
            let server = Server::start(&ServeOptions {
                queue: 1,
                workers: 1,
                ..ServeOptions::default()
            })
            .unwrap();
            let addr = server.local_addr();
            // Saturate: many concurrent clients each firing one check.
            // With capacity 1 and one worker, some must be shed — and
            // every client must still get exactly one response line.
            let responses: Vec<String> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..12)
                    .map(|i| {
                        scope.spawn(move || {
                            let (mut reader, mut writer) = client(addr);
                            roundtrip(
                                &mut reader,
                                &mut writer,
                                &format!(
                                    r#"{{"kind": "check", "id": {i}, "source": "{}"}}"#,
                                    crate::protocol::json_escape(LEAKY)
                                ),
                            )
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            let ok = responses
                .iter()
                .filter(|r| r.contains("\"status\": \"ok\""))
                .count();
            let shed = responses
                .iter()
                .filter(|r| r.contains("\"status\": \"overloaded\""))
                .count();
            assert_eq!(ok + shed, 12, "{responses:?}");
            assert!(
                ok >= 1,
                "at least one request must be served: {responses:?}"
            );
            let summary = server.drain();
            assert!(summary.drained_cleanly);
            assert_eq!(summary.stats.shed as usize, shed);
        });
    }

    fn stats_field(stats: &str, key: &str) -> i64 {
        let Ok(crate::protocol::Json::Obj(obj)) = crate::protocol::parse_json(stats) else {
            panic!("unparseable stats frame: {stats}");
        };
        match obj.get(key) {
            Some(crate::protocol::Json::Num(n)) => *n,
            other => panic!("stats[{key}] = {other:?} in {stats}"),
        }
    }

    /// Fires `n` concurrent identical checks (same id, same source) and
    /// returns every response line.
    fn identical_burst(addr: SocketAddr, n: usize) -> Vec<String> {
        let line = format!(
            r#"{{"kind": "check", "id": 7, "source": "{}"}}"#,
            crate::protocol::json_escape(LEAKY)
        );
        let line = &line;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(move || {
                        let (mut reader, mut writer) = client(addr);
                        roundtrip(&mut reader, &mut writer, line)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn identical_concurrent_checks_coalesce_and_byte_match_an_uncoalesced_run() {
        // Baseline: the exact frame a coalescing-off daemon renders.
        let baseline = {
            let server = Server::start(&ServeOptions {
                coalesce: false,
                ..ServeOptions::default()
            })
            .unwrap();
            let (mut reader, mut writer) = client(server.local_addr());
            let frame = roundtrip(
                &mut reader,
                &mut writer,
                &format!(
                    r#"{{"kind": "check", "id": 7, "source": "{}"}}"#,
                    crate::protocol::json_escape(LEAKY)
                ),
            );
            let _ = server.drain();
            frame
        };
        assert!(baseline.contains("\"exit_code\": 1"), "{baseline}");

        for workers in [1usize, 8] {
            let server = Server::start(&ServeOptions {
                workers,
                queue: 64,
                ..ServeOptions::default()
            })
            .unwrap();
            let addr = server.local_addr();
            let (mut reader, mut writer) = client(addr);
            // Whether or not a twin attaches is a race; repeat bursts on
            // the single-worker daemon until one demonstrably did.
            let mut coalesced = 0;
            for _round in 0..25 {
                for resp in identical_burst(addr, 12) {
                    assert_eq!(resp, baseline, "coalesced response must byte-match");
                }
                let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
                coalesced = stats_field(&stats, "coalesced");
                // Followers never compute: every analysis belongs to an
                // admitted leader, so the check count tracks admissions.
                assert_eq!(
                    stats_field(&stats, "checks"),
                    stats_field(&stats, "admitted"),
                    "{stats}"
                );
                if workers > 1 || coalesced > 0 {
                    break;
                }
            }
            if workers == 1 {
                assert!(coalesced > 0, "no twin ever coalesced under a busy worker");
            }
            let summary = server.drain();
            assert!(summary.drained_cleanly);
        }
    }

    #[test]
    fn explain_and_injected_requests_are_never_coalesced() {
        let server = Server::start(&ServeOptions {
            workers: 1,
            ..ServeOptions::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let explain_line = format!(
            r#"{{"kind": "check", "id": 7, "source": "{}", "explain": true}}"#,
            crate::protocol::json_escape(LEAKY)
        );
        let inject_line = format!(
            r#"{{"kind": "check", "id": 7, "source": "{}", "inject": "exhaust@0"}}"#,
            crate::protocol::json_escape(LEAKY)
        );
        std::thread::scope(|scope| {
            for line in [&explain_line, &inject_line] {
                for _ in 0..4 {
                    scope.spawn(move || {
                        let (mut reader, mut writer) = client(addr);
                        let resp = roundtrip(&mut reader, &mut writer, line);
                        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
                    });
                }
            }
        });
        let (mut reader, mut writer) = client(addr);
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert_eq!(stats_field(&stats, "coalesced"), 0, "{stats}");
        assert_eq!(stats_field(&stats, "admitted"), 8, "{stats}");
        let summary = server.drain();
        assert!(summary.drained_cleanly);
    }

    #[test]
    fn metrics_verb_answers_inline_while_draining_and_http_serves_raw() {
        let server = Server::start(&ServeOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(server.local_addr());
        let check = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(check.contains("\"status\": \"ok\""), "{check}");

        // Flip to draining; the metrics verb must still answer inline.
        let resp = roundtrip(&mut reader, &mut writer, r#"{"kind": "shutdown"}"#);
        assert!(resp.contains("\"state\": \"draining\""), "{resp}");
        let metrics = roundtrip(&mut reader, &mut writer, r#"{"kind": "metrics"}"#);
        let text = crate::protocol::parse_metrics_response(&metrics)
            .expect("metrics verb answers while draining");
        assert!(text.contains("leakc_up 1"), "{text}");
        assert!(text.contains("leakc_checks_total 1"), "{text}");
        assert!(
            text.contains("# TYPE leakc_phase_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("leakc_phase_seconds_bucket{phase=\"flows\",le=\"+Inf\"} 1"),
            "{text}"
        );
        // One small check: its phases take microseconds, and the buckets
        // resolve them below 1 ms.
        assert!(
            text.contains("leakc_phase_seconds_bucket{phase=\"flows\",le=\"0.00001\"} "),
            "{text}"
        );
        let sub_ms = PHASE_NAMES
            .iter()
            .filter(|phase| {
                text.contains(&format!(
                    "leakc_phase_seconds_bucket{{phase=\"{phase}\",le=\"0.0005\"}} 1"
                ))
            })
            .count();
        assert!(sub_ms > 0, "no phase counted below 0.5 ms: {text}");

        // The same exposition comes back raw over plain HTTP.
        let http = server.metrics_addr().expect("metrics listener bound");
        let mut stream = TcpStream::connect(http).expect("connect metrics");
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\nHost: test\r\n\r\n")
            .unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("text/plain; version=0.0.4"), "{body}");
        assert!(body.contains("leakc_up 1"), "{body}");

        // Unknown paths get a 404, not a hang or an exposition.
        let mut stream = TcpStream::connect(http).expect("connect metrics");
        stream.write_all(b"GET /other HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        stream.read_to_string(&mut body).unwrap();
        assert!(body.starts_with("HTTP/1.0 404"), "{body}");

        let summary = server.drain();
        assert!(summary.drained_cleanly);
    }

    #[test]
    fn shard_identity_surfaces_and_shutdown_drains_health_immediately() {
        let server = Server::start(&ServeOptions {
            shard: Some("shard-a".to_string()),
            epoch: 3,
            ..ServeOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(server.local_addr());

        let health = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
        assert!(health.contains("\"shard\": \"shard-a\""), "{health}");
        assert!(health.contains("\"epoch\": 3"), "{health}");
        assert!(health.contains("\"state\": \"running\""), "{health}");
        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(stats.contains("\"shard\": \"shard-a\""), "{stats}");

        let resp = roundtrip(&mut reader, &mut writer, r#"{"kind": "shutdown"}"#);
        assert!(resp.contains("\"state\": \"draining\""), "{resp}");
        // The DrainState flips the moment shutdown is acknowledged —
        // before the serve loop runs the full drain — so a router's
        // next health probe stops routing here early.
        let health = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
        assert!(health.contains("\"state\": \"draining\""), "{health}");
        let refused = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(refused.contains("\"status\": \"draining\""), "{refused}");
        let summary = server.drain();
        assert!(summary.drained_cleanly);
        assert_eq!(summary.stats.admitted, 0);
    }

    #[test]
    fn shard_deadline_ceiling_tightens_request_governance() {
        // An operator-set --deadline-ms 0 means every check's governor
        // starts expired: the analysis degrades soundly (the leak is
        // still reported, tagged deadline-expired) instead of running
        // unbounded — the shard-side half of end-to-end deadline
        // propagation.
        let server = Server::start(&ServeOptions {
            deadline_ms: Some(0),
            ..ServeOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(server.local_addr());
        let resp = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(resp.contains("\"status\": \"ok\""), "{resp}");
        assert!(resp.contains("\"degraded\": true"), "{resp}");
        assert!(resp.contains("(degraded: deadline-expired)"), "{resp}");
        // A request-carried deadline cannot *loosen* the shard ceiling
        // (min wins), so an explicit generous value still degrades.
        let resp = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 2, "source": "{}", "deadline_ms": 60000}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(resp.contains("\"degraded\": true"), "{resp}");
        let summary = server.drain();
        assert!(summary.drained_cleanly);
    }

    #[test]
    fn shutdown_request_triggers_drain_and_refusal() {
        let server = Server::start(&ServeOptions::default()).unwrap();
        let (mut reader, mut writer) = client(server.local_addr());
        let resp = roundtrip(&mut reader, &mut writer, r#"{"kind": "shutdown"}"#);
        assert!(resp.contains("\"state\": \"draining\""), "{resp}");
        assert!(server.shutdown_requested());
        let summary = server.drain();
        assert!(summary.drained_cleanly);
        // Post-drain submissions on a still-open connection are refused.
        writer
            .write_all(b"{\"kind\": \"panic\"}\n")
            .and_then(|()| writer.flush())
            .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"status\": \"draining\""), "{line}");
    }

    #[test]
    fn delta_verb_replays_warm_and_reports_verified_changes() {
        let dir = std::env::temp_dir().join(format!("leakc-serve-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(&ServeOptions {
            cache: Some(dir.to_string_lossy().into_owned()),
            ..ServeOptions::default()
        })
        .unwrap();
        let (mut reader, mut writer) = client(server.local_addr());

        // Without a cache the verb is a typed error.
        let plain = Server::start(&ServeOptions::default()).unwrap();
        let (mut preader, mut pwriter) = client(plain.local_addr());
        let refused = roundtrip(
            &mut preader,
            &mut pwriter,
            r#"{"kind": "delta", "id": 0, "source": "class A { }"}"#,
        );
        assert!(refused.contains("requires a summary cache"), "{refused}");
        let _ = plain.drain();

        // Cold check populates the store.
        let cold = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "check", "id": 1, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(cold.contains("\"exit_code\": 1"), "{cold}");

        // Unchanged source: full warm replay, byte-identical output.
        let warm = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "delta", "id": 2, "source": "{}"}}"#,
                crate::protocol::json_escape(LEAKY)
            ),
        );
        assert!(warm.contains("\"warm\": 1"), "{warm}");
        assert!(warm.contains("\"changed\": []"), "{warm}");
        let output_of = |resp: &str| {
            let start = resp.find("\"output\": ").expect("output field") + 10;
            resp[start..resp.len() - 1].to_string()
        };
        assert_eq!(
            output_of(&cold),
            output_of(&warm),
            "warm replay must be byte-identical"
        );

        // An analysis-visible edit (extra allocation kept live) misses,
        // invalidates the stored summaries, and names the method.
        let edited = LEAKY.replace(
            "Object o = new Object();",
            "Object o = new Object(); Object extra = new Object(); c.add(extra);",
        );
        let delta = roundtrip(
            &mut reader,
            &mut writer,
            &format!(
                r#"{{"kind": "delta", "id": 3, "source": "{}", "changed": ["Main.main"]}}"#,
                crate::protocol::json_escape(&edited)
            ),
        );
        assert!(delta.contains("\"warm\": 0"), "{delta}");
        assert!(delta.contains("\"changed\": [\"Main.main\"]"), "{delta}");
        assert!(delta.contains("\"exit_code\": 1"), "{delta}");

        let stats = roundtrip(&mut reader, &mut writer, r#"{"kind": "stats"}"#);
        assert!(
            stats.contains("\"cache\": {\"hits\": 1, \"misses\": 2,"),
            "{stats}"
        );
        // Each cold result is one store commit, one fsync.
        let metrics = roundtrip(&mut reader, &mut writer, r#"{"kind": "metrics"}"#);
        let text = crate::protocol::parse_metrics_response(&metrics).expect("metrics text");
        assert!(
            text.contains("# TYPE leakc_cache_syncs_total counter\nleakc_cache_syncs_total 2\n"),
            "{text}"
        );

        let summary = server.drain();
        assert!(summary.drained_cleanly);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A leaky loop whose body nests `depth` `if` blocks around its
    /// allocation.
    fn nested_check(depth: usize) -> String {
        format!(
            "class Item {{ }} class Holder {{ Item item; }}
             class Main {{ static void main() {{ Holder h = new Holder();
               @check while (nondet()) {{ {}Item it = new Item(); h.item = it;{} }} }} }}",
            "if (nondet()) { ".repeat(depth),
            " }".repeat(depth)
        )
    }

    #[test]
    fn hostile_nesting_gets_one_error_and_the_shard_keeps_serving() {
        let server = Server::start(&ServeOptions::default()).unwrap();
        let (mut reader, mut writer) = client(server.local_addr());
        let frame = |id: u32, source: &str| {
            format!(
                r#"{{"kind": "check", "id": {id}, "source": "{}"}}"#,
                crate::protocol::json_escape(source)
            )
        };
        let deep = roundtrip(&mut reader, &mut writer, &frame(1, &nested_check(30_000)));
        assert!(deep.contains("\"status\": \"error\""), "{deep}");
        assert!(deep.contains("nests deeper than"), "{deep}");
        // The deepest program the budget admits: main's body, the loop
        // body, each `if` block, the store's expression and its member
        // access add one level each. A worker thread compiles and checks
        // it.
        let admitted = leakchecker_frontend::parser::MAX_NESTING as usize - 4;
        let ok = roundtrip(&mut reader, &mut writer, &frame(2, &nested_check(admitted)));
        assert!(ok.contains("\"status\": \"ok\""), "{ok}");
        assert!(ok.contains("\"reports\": 1"), "{ok}");
        let over = roundtrip(
            &mut reader,
            &mut writer,
            &frame(3, &nested_check(admitted + 1)),
        );
        assert!(over.contains("nests deeper than"), "{over}");
        let health = roundtrip(&mut reader, &mut writer, r#"{"kind": "health"}"#);
        assert!(health.contains("\"state\": \"running\""), "{health}");
        assert!(server.drain().drained_cleanly);
    }

    #[test]
    fn over_cap_line_is_refused_once_while_other_connections_are_served() {
        let server = Server::start(&ServeOptions::default()).unwrap();
        let addr = server.local_addr();
        let (mut reader, mut writer) = client(addr);
        // One byte past the cap and never a newline: the daemon stops
        // reading at the cap, so it consumes exactly what was sent.
        let chunk = vec![b'x'; 1 << 20];
        let mut left = MAX_FRAME_BYTES + 1;
        let sender = std::thread::spawn(move || {
            while left > 0 {
                let n = left.min(chunk.len());
                writer.write_all(&chunk[..n]).unwrap();
                left -= n;
            }
        });
        // Mid-flood, another connection is answered as usual.
        let (mut r, mut w) = client(addr);
        let health = roundtrip(&mut r, &mut w, r#"{"kind": "health"}"#);
        assert!(health.contains("\"state\": \"running\""), "{health}");
        sender.join().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), crate::protocol::render_oversized());
        assert!(line.contains("\"status\": \"error\""), "{line}");
        // Exactly one answer, then the connection is closed.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "{line}");
        let health = roundtrip(&mut r, &mut w, r#"{"kind": "health"}"#);
        assert!(health.contains("\"state\": \"running\""), "{health}");
        assert!(server.drain().drained_cleanly);
    }

    #[test]
    fn over_cap_http_line_gets_a_431() {
        let server = Server::start(&ServeOptions {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            ..ServeOptions::default()
        })
        .unwrap();
        let http = server.metrics_addr().expect("metrics listener bound");
        let mut stream = TcpStream::connect(http).expect("connect metrics");
        // Exactly one byte past the cap, so the listener has read all
        // of it when it answers.
        let line = format!("GET /{}", "a".repeat(MAX_HTTP_LINE_BYTES - 4));
        stream.write_all(line.as_bytes()).unwrap();
        let mut body = String::new();
        let _ = stream.read_to_string(&mut body);
        assert!(body.starts_with("HTTP/1.0 431"), "{body}");
        assert!(server.drain().drained_cleanly);
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_serves_the_same_protocol() {
        let path = std::env::temp_dir().join(format!("leakc-serve-{}.sock", std::process::id()));
        let path_str = path.to_string_lossy().into_owned();
        let server = Server::start(&ServeOptions {
            socket: Some(path_str.clone()),
            ..ServeOptions::default()
        })
        .unwrap();
        let stream = std::os::unix::net::UnixStream::connect(&path).expect("unix connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"{\"kind\": \"health\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"state\": \"running\""), "{line}");
        let _ = server.drain();
        assert!(!path.exists(), "socket file removed on drain");
    }
}
