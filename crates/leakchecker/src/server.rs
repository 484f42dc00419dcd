//! The analysis-service core: a bounded admission queue, a panic-isolated
//! worker pool, and a graceful-drain state machine.
//!
//! This module is transport-agnostic — it knows nothing about sockets
//! or JSON. The CLI's `leakc serve` wires a line-delimited protocol on
//! top; tests and the soak harness drive it in-process. The contract:
//!
//! * **admission control** — [`ServeCore::submit`] either admits a
//!   request into a queue bounded by [`ServeConfig::capacity`] or sheds
//!   it *immediately* with [`SubmitError::Overloaded`]. A shed request
//!   is never silently dropped or starved: the caller always learns its
//!   fate synchronously.
//! * **isolation** — every admitted request runs through
//!   [`crate::parallel_map_isolated`], so a panicking handler (an
//!   injected fault or a genuine bug) yields an `Err(panic message)`
//!   for *that request* while the worker thread, the queue, and every
//!   other request keep going.
//! * **graceful drain** — [`ServeCore::begin_drain`] flips the state
//!   machine `Running → Draining`; submissions are refused with
//!   [`SubmitError::Draining`], queued and in-flight requests complete,
//!   and [`ServeCore::shutdown`] joins the workers (`Draining →
//!   Stopped`) and returns the final counters.
//! * **in-flight coalescing** — [`ServeCore::submit_coalesced`] accepts
//!   an optional identity key; a submission whose key matches a request
//!   that is still queued or running attaches as a *follower* and
//!   receives a clone of that one computation's result instead of
//!   occupying a queue slot. Followers are counted in
//!   [`ServeStats::coalesced`] and are answered even across a drain
//!   (the leader they attached to always completes).

use crate::parallel::{lock_resilient, parallel_map_isolated};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing knobs for the service core.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    /// Maximum requests waiting for a worker; submissions beyond the
    /// bound are shed with [`SubmitError::Overloaded`].
    pub capacity: usize,
    /// Worker threads executing admitted requests (resolved through
    /// [`crate::effective_jobs`]; 0 = machine width).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            capacity: 64,
            workers: 1,
        }
    }
}

/// Why a submission was refused.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; the request was shed, not enqueued.
    Overloaded {
        /// Queue depth observed at the shed decision.
        queue_depth: usize,
    },
    /// The core is draining (or stopped); no new work is accepted.
    Draining,
}

/// The drain state machine's observable state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DrainState {
    /// Accepting and executing requests.
    Running,
    /// No longer accepting; finishing queued and in-flight requests.
    Draining,
    /// Workers joined; all accepted requests have been answered.
    Stopped,
}

impl DrainState {
    /// Stable lowercase label (used by the protocol's `health` reply).
    pub fn label(self) -> &'static str {
        match self {
            DrainState::Running => "running",
            DrainState::Draining => "draining",
            DrainState::Stopped => "stopped",
        }
    }

    fn from_u8(v: u8) -> DrainState {
        match v {
            0 => DrainState::Running,
            1 => DrainState::Draining,
            _ => DrainState::Stopped,
        }
    }
}

/// Final (or live) counters for the service.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests executed to completion (including panicked ones).
    pub served: u64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests whose handler panicked (quarantined, answered with the
    /// panic message).
    pub panicked: u64,
    /// Requests answered by attaching to an in-flight twin instead of
    /// computing (they never occupied a queue slot).
    pub coalesced: u64,
    /// Requests waiting for a worker right now.
    pub queue_depth: usize,
}

/// The response channel a queued request's submitter is waiting on.
type ReplyTx<Resp> = Sender<Result<Resp, String>>;

struct QueueState<Req, Resp> {
    items: VecDeque<(Req, ReplyTx<Resp>, Option<u64>)>,
    /// Keys with a leader currently queued or running, mapped to the
    /// followers awaiting that leader's result. An entry is created at
    /// leader admission and removed (with its followers drained for
    /// broadcast) when the leader's computation completes.
    followers: HashMap<u64, Vec<ReplyTx<Resp>>>,
    closed: bool,
}

struct Shared<Req, Resp> {
    queue: Mutex<QueueState<Req, Resp>>,
    available: Condvar,
    capacity: usize,
    state: AtomicU8,
    admitted: AtomicU64,
    served: AtomicU64,
    shed: AtomicU64,
    panicked: AtomicU64,
    coalesced: AtomicU64,
}

/// The running service core. `Req` flows in through [`submit`]
/// (`ServeCore::submit`), the handler maps it to `Resp`, and the caller
/// receives `Result<Resp, String>` — `Err` carrying the panic message
/// of a quarantined handler.
///
/// `Resp: Clone` because a coalesced result is broadcast to every
/// follower; responses are expected to be cheap to clone (the serve
/// daemon's are rendered `String`s).
pub struct ServeCore<Req: Send + 'static, Resp: Clone + Send + 'static> {
    shared: Arc<Shared<Req, Resp>>,
    workers: Vec<JoinHandle<()>>,
}

impl<Req: Send + 'static, Resp: Clone + Send + 'static> ServeCore<Req, Resp> {
    /// Starts `config.workers` worker threads executing `handler`.
    pub fn start<F>(config: ServeConfig, handler: F) -> ServeCore<Req, Resp>
    where
        F: Fn(Req) -> Resp + Send + Sync + 'static,
    {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                items: VecDeque::new(),
                followers: HashMap::new(),
                closed: false,
            }),
            available: Condvar::new(),
            capacity: config.capacity,
            state: AtomicU8::new(0),
            admitted: AtomicU64::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        });
        let handler = Arc::new(handler);
        let workers = (0..crate::effective_jobs(config.workers))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker_loop(&shared, &*handler))
            })
            .collect();
        ServeCore { shared, workers }
    }

    /// Offers a request. On admission, returns the receiver that will
    /// yield the handler's result (or the panic message of a
    /// quarantined run). On refusal, the typed reason — the request was
    /// *not* enqueued.
    pub fn submit(&self, req: Req) -> Result<Receiver<Result<Resp, String>>, SubmitError> {
        self.submit_coalesced(req, None).map(|(rx, _)| rx)
    }

    /// Like [`submit`](ServeCore::submit), but with an optional identity
    /// key. If `key` matches a request that is still queued or running,
    /// this submission attaches as a follower of that computation — it
    /// occupies no queue slot, cannot be shed, and will receive a clone
    /// of the twin's result. The returned flag is `true` iff the
    /// request coalesced. Callers must only pass a key for requests
    /// whose response is a pure function of the key.
    pub fn submit_coalesced(
        &self,
        req: Req,
        key: Option<u64>,
    ) -> Result<(Receiver<Result<Resp, String>>, bool), SubmitError> {
        let mut queue = lock_resilient(&self.shared.queue);
        if queue.closed {
            return Err(SubmitError::Draining);
        }
        if let Some(k) = key {
            if let Some(waiters) = queue.followers.get_mut(&k) {
                let (tx, rx) = channel();
                waiters.push(tx);
                self.shared.coalesced.fetch_add(1, Ordering::Relaxed);
                return Ok((rx, true));
            }
        }
        // Capture the depth at the shed decision itself so the typed
        // refusal reports the exact occupancy that caused it.
        let depth = queue.items.len();
        if depth >= self.shared.capacity {
            self.shared.shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::Overloaded { queue_depth: depth });
        }
        let (tx, rx) = channel();
        if let Some(k) = key {
            queue.followers.insert(k, Vec::new());
        }
        queue.items.push_back((req, tx, key));
        self.shared.admitted.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.shared.available.notify_one();
        Ok((rx, false))
    }

    /// Current drain state.
    pub fn state(&self) -> DrainState {
        DrainState::from_u8(self.shared.state.load(Ordering::Relaxed))
    }

    /// Live counters.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            admitted: self.shared.admitted.load(Ordering::Relaxed),
            served: self.shared.served.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            panicked: self.shared.panicked.load(Ordering::Relaxed),
            coalesced: self.shared.coalesced.load(Ordering::Relaxed),
            queue_depth: lock_resilient(&self.shared.queue).items.len(),
        }
    }

    /// `Running → Draining`: closes admission. Queued and in-flight
    /// requests still complete; call [`shutdown`](ServeCore::shutdown)
    /// to wait for them. Idempotent.
    pub fn begin_drain(&self) {
        {
            let mut queue = lock_resilient(&self.shared.queue);
            queue.closed = true;
        }
        let _ = self
            .shared
            .state
            .compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
        self.shared.available.notify_all();
    }

    /// Drains (if not already draining) and joins every worker. Returns
    /// the final counters; afterwards the state is
    /// [`DrainState::Stopped`] and every admitted request has been
    /// answered.
    pub fn shutdown(mut self) -> ServeStats {
        self.begin_drain();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.shared.state.store(2, Ordering::Relaxed);
        self.stats()
    }
}

fn worker_loop<Req: Send, Resp: Clone + Send>(
    shared: &Shared<Req, Resp>,
    handler: &(dyn Fn(Req) -> Resp + Sync),
) {
    loop {
        let (req, reply, key) = {
            let mut queue = lock_resilient(&shared.queue);
            loop {
                if let Some(item) = queue.items.pop_front() {
                    break item;
                }
                if queue.closed {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        // One-item isolated map: the request runs under the same
        // quarantine primitive as the detector's fan-out phases, so a
        // panicking handler degrades to an Err for this request only.
        let mut out = parallel_map_isolated(1, vec![req], handler);
        let result = out.pop().expect("one item in, one result out");
        if result.is_err() {
            shared.panicked.fetch_add(1, Ordering::Relaxed);
        }
        shared.served.fetch_add(1, Ordering::Relaxed);
        // Retire the key *before* answering anyone: once the entry is
        // gone a fresh identical submission starts a new leader rather
        // than attaching to a computation that already finished.
        let followers = match key {
            Some(k) => lock_resilient(&shared.queue)
                .followers
                .remove(&k)
                .unwrap_or_default(),
            None => Vec::new(),
        };
        // The submitter may have given up (connection gone); a dead
        // receiver is not an error.
        for follower in followers {
            let _ = follower.send(result.clone());
        }
        let _ = reply.send(result);
    }
}

// ---------------------------------------------------------------------------
// Fleet primitives: the circuit breaker and the consistent-hash ring.
//
// Both are transport-agnostic — the `leakc route` coordinator wires
// them to sockets, and the chaos harness drives them in-process. They
// live here (next to `ServeCore`) because they are the replica-aware
// half of the serve contract: a shard that stops answering must be
// evicted from routing *without* losing accepted work, and a recovered
// shard must be re-admitted through a controlled probe, never a
// thundering herd.

/// Tuning for one shard's [`CircuitBreaker`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip `Closed → Open`.
    pub failure_threshold: u32,
    /// How long an open breaker refuses traffic before allowing one
    /// half-open probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// The breaker's observable state.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every request is admitted.
    Closed,
    /// Tripped: requests are refused until the cooldown elapses.
    Open,
    /// Cooled down: exactly one probe is in flight; its outcome decides
    /// `Closed` (success) or `Open` again (failure).
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase label (used by the router's `stats` reply).
    pub fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// Lifetime counters of one breaker (surfaced by the router's `stats`
/// verb so chaos tests can observe the half-open re-admission path).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BreakerStats {
    /// Transport failures recorded.
    pub failures: u64,
    /// `Closed → Open` transitions.
    pub opened: u64,
    /// Probes admitted in the half-open state.
    pub half_open_probes: u64,
    /// `HalfOpen → Closed` recoveries (a probe succeeded).
    pub closed_from_half_open: u64,
    /// `HalfOpen → Open` relapses (a probe failed).
    pub reopened: u64,
}

/// Per-shard circuit breaker: `Closed → Open` after
/// [`BreakerConfig::failure_threshold`] consecutive transport failures,
/// `Open → HalfOpen` after the cooldown, and the single half-open
/// probe's outcome decides between `Closed` and `Open`.
///
/// Time is passed in explicitly (`now: Instant`) so the state machine
/// is testable without sleeping and the router can drive every breaker
/// off one clock read per request.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Option<Instant>,
    stats: BreakerStats,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker.
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: None,
            stats: BreakerStats::default(),
        }
    }

    /// Should a request be sent to this shard right now? `Closed`
    /// always admits; `Open` admits nothing until the cooldown elapses,
    /// at which point the breaker moves to `HalfOpen` and admits
    /// exactly one probe; `HalfOpen` refuses everything else until the
    /// in-flight probe reports back.
    pub fn admit(&mut self, now: Instant) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false,
            BreakerState::Open => {
                let cooled = self
                    .opened_at
                    .is_none_or(|at| now.duration_since(at) >= self.config.cooldown);
                if cooled {
                    self.state = BreakerState::HalfOpen;
                    self.stats.half_open_probes += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful exchange (the shard answered — even an
    /// `overloaded` shed proves the process is alive).
    pub fn record_success(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.stats.closed_from_half_open += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
        self.opened_at = None;
    }

    /// Records a transport failure (refused/reset connection, read
    /// timeout, torn frame).
    pub fn record_failure(&mut self, now: Instant) {
        self.stats.failures += 1;
        match self.state {
            BreakerState::HalfOpen => {
                // The probe failed: relapse to open and restart the
                // cooldown from now.
                self.state = BreakerState::Open;
                self.opened_at = Some(now);
                self.stats.reopened += 1;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.config.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = Some(now);
                    self.stats.opened += 1;
                }
            }
            BreakerState::Open => {
                // Extra failures while open (e.g. a losing hedge)
                // restart the cooldown.
                self.opened_at = Some(now);
            }
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Lifetime counters.
    pub fn stats(&self) -> BreakerStats {
        self.stats
    }
}

/// 64-bit finalizer (SplitMix64's mixing function): cheap, stateless,
/// and well-distributed — exactly what ring-point placement needs.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string: the routing key for a request (the check
/// source text). Stable across processes and platforms, so every router
/// instance agrees on placement.
pub fn route_key(bytes: &[u8]) -> u64 {
    crate::cache::fnv1a(bytes)
}

/// A consistent-hash ring over `nodes` shard slots, each placed at
/// `vnodes` pseudo-random points. [`HashRing::preference`] walks the
/// ring clockwise from a key and returns every distinct node in
/// encounter order — the primary first, then the replicas a router
/// should fail over to. Adding or removing one node relocates only the
/// keys whose arc it owned, which is the property that lets a fleet
/// resize without a full cache/affinity reshuffle.
#[derive(Clone, Debug)]
pub struct HashRing {
    /// `(ring position, node index)`, sorted by position.
    points: Vec<(u64, usize)>,
    nodes: usize,
}

impl HashRing {
    /// Builds a ring over node indices `0..nodes`.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` or `vnodes` is zero.
    pub fn new(nodes: usize, vnodes: usize) -> HashRing {
        assert!(nodes > 0, "ring needs at least one node");
        assert!(vnodes > 0, "ring needs at least one vnode per node");
        let mut points = Vec::with_capacity(nodes * vnodes);
        for node in 0..nodes {
            for vnode in 0..vnodes {
                let point = mix64((node as u64) << 32 | vnode as u64);
                points.push((point, node));
            }
        }
        points.sort_unstable();
        HashRing { points, nodes }
    }

    /// Number of nodes on the ring.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Every node in ring order starting at `key`'s successor: the
    /// primary placement followed by the fail-over replicas.
    pub fn preference(&self, key: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = vec![false; self.nodes];
        let mut order = Vec::with_capacity(self.nodes);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !seen[node] {
                seen[node] = true;
                order.push(node);
                if order.len() == self.nodes {
                    break;
                }
            }
        }
        order
    }

    /// The primary node for `key`.
    pub fn primary(&self, key: u64) -> usize {
        self.preference(key)[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_panics<R>(f: impl FnOnce() -> R) -> R {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(hook);
        out
    }

    #[test]
    fn requests_round_trip_in_order_per_submitter() {
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 2,
            },
            |x: u32| x * 2,
        );
        for x in 0..20u32 {
            let rx = core.submit(x).unwrap();
            assert_eq!(rx.recv().unwrap(), Ok(x * 2));
        }
        let stats = core.shutdown();
        assert_eq!(stats.admitted, 20);
        assert_eq!(stats.served, 20);
        assert_eq!(stats.shed, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn overload_sheds_with_a_typed_refusal() {
        // One worker blocked on a slow request, capacity 1: the second
        // submission queues, the third is shed.
        let core = ServeCore::start(
            ServeConfig {
                capacity: 1,
                workers: 1,
            },
            |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                ms
            },
        );
        let first = core.submit(150).unwrap();
        // Give the worker time to claim the first item.
        std::thread::sleep(Duration::from_millis(30));
        let second = core.submit(0).unwrap();
        match core.submit(0) {
            Err(SubmitError::Overloaded { queue_depth }) => {
                // The depth is the occupancy observed at the shed
                // decision itself, so it is never below capacity.
                assert!(queue_depth >= 1, "depth {queue_depth} below capacity");
                assert_eq!(queue_depth, 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(first.recv().unwrap(), Ok(150));
        assert_eq!(second.recv().unwrap(), Ok(0));
        let stats = core.shutdown();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn coalesced_twins_compute_once_and_all_get_the_result() {
        use std::sync::atomic::AtomicU64;
        let runs = Arc::new(AtomicU64::new(0));
        let handler_runs = Arc::clone(&runs);
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 1,
            },
            move |x: u64| {
                handler_runs.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(80));
                x * 10
            },
        );
        let (leader, was_coalesced) = core.submit_coalesced(7, Some(7)).unwrap();
        assert!(!was_coalesced);
        // Let the worker claim the leader so the twins attach to a
        // *running* computation, not just a queued one.
        std::thread::sleep(Duration::from_millis(20));
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let (rx, was_coalesced) = core.submit_coalesced(7, Some(7)).unwrap();
                assert!(was_coalesced);
                rx
            })
            .collect();
        // A different key is a different computation.
        let (other, was_coalesced) = core.submit_coalesced(9, Some(9)).unwrap();
        assert!(!was_coalesced);
        assert_eq!(leader.recv().unwrap(), Ok(70));
        for rx in followers {
            assert_eq!(rx.recv().unwrap(), Ok(70));
        }
        assert_eq!(other.recv().unwrap(), Ok(90));
        assert_eq!(runs.load(Ordering::Relaxed), 2, "one run per distinct key");
        let stats = core.shutdown();
        assert_eq!(stats.coalesced, 4);
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn keyless_submissions_never_coalesce() {
        use std::sync::atomic::AtomicU64;
        let runs = Arc::new(AtomicU64::new(0));
        let handler_runs = Arc::clone(&runs);
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 1,
            },
            move |x: u64| {
                handler_runs.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(40));
                x
            },
        );
        let a = core.submit_coalesced(1, None).unwrap().0;
        std::thread::sleep(Duration::from_millis(10));
        let b = core.submit_coalesced(1, None).unwrap().0;
        assert_eq!(a.recv().unwrap(), Ok(1));
        assert_eq!(b.recv().unwrap(), Ok(1));
        assert_eq!(runs.load(Ordering::Relaxed), 2);
        let stats = core.shutdown();
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.admitted, 2);
    }

    #[test]
    fn completed_key_is_retired_and_recomputes() {
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 1,
            },
            |x: u64| x + 1,
        );
        let (first, _) = core.submit_coalesced(5, Some(5)).unwrap();
        assert_eq!(first.recv().unwrap(), Ok(6));
        // The twin window closed with the computation: a fresh
        // submission under the same key is a new leader.
        let (second, was_coalesced) = core.submit_coalesced(5, Some(5)).unwrap();
        assert!(!was_coalesced);
        assert_eq!(second.recv().unwrap(), Ok(6));
        let stats = core.shutdown();
        assert_eq!(stats.coalesced, 0);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn followers_are_answered_across_a_drain() {
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 1,
            },
            |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                ms
            },
        );
        let (leader, _) = core.submit_coalesced(120, Some(1)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let (follower, was_coalesced) = core.submit_coalesced(120, Some(1)).unwrap();
        assert!(was_coalesced);
        core.begin_drain();
        assert!(matches!(
            core.submit_coalesced(120, Some(1)),
            Err(SubmitError::Draining)
        ));
        assert_eq!(leader.recv().unwrap(), Ok(120));
        assert_eq!(follower.recv().unwrap(), Ok(120));
        let stats = core.shutdown();
        assert_eq!(stats.coalesced, 1);
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.served, 1);
    }

    #[test]
    fn panicking_handler_is_quarantined_not_fatal() {
        quiet_panics(|| {
            let core = ServeCore::start(
                ServeConfig {
                    capacity: 8,
                    workers: 1,
                },
                |x: u32| {
                    if x == 13 {
                        panic!("injected handler panic");
                    }
                    x
                },
            );
            let bad = core.submit(13).unwrap();
            let err = bad.recv().unwrap().unwrap_err();
            assert!(err.contains("injected handler panic"), "{err}");
            // The same worker thread keeps serving.
            let good = core.submit(7).unwrap();
            assert_eq!(good.recv().unwrap(), Ok(7));
            let stats = core.shutdown();
            assert_eq!(stats.panicked, 1);
            assert_eq!(stats.served, 2);
        });
    }

    #[test]
    fn drain_refuses_new_work_but_finishes_queued_work() {
        let core = ServeCore::start(
            ServeConfig {
                capacity: 8,
                workers: 1,
            },
            |ms: u64| {
                std::thread::sleep(Duration::from_millis(ms));
                ms
            },
        );
        let slow = core.submit(100).unwrap();
        let queued = core.submit(1).unwrap();
        core.begin_drain();
        assert_eq!(core.state(), DrainState::Draining);
        assert!(matches!(core.submit(0), Err(SubmitError::Draining)));
        // Both accepted requests still complete during the drain.
        assert_eq!(slow.recv().unwrap(), Ok(100));
        assert_eq!(queued.recv().unwrap(), Ok(1));
        let stats = core.shutdown();
        assert_eq!(stats.admitted, 2);
        assert_eq!(stats.served, 2);
    }

    #[test]
    fn shutdown_is_terminal_and_counts_are_consistent() {
        let core = ServeCore::start(ServeConfig::default(), |x: u8| x);
        let rx = core.submit(1).unwrap();
        assert_eq!(rx.recv().unwrap(), Ok(1));
        let stats = core.shutdown();
        assert_eq!(stats.admitted, stats.served);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn concurrent_submitters_never_hang_under_overload() {
        // The soak-shaped invariant: every submission gets a synchronous
        // verdict (admitted result or typed shed), even when far more
        // clients than capacity arrive at once.
        let core = Arc::new(ServeCore::start(
            ServeConfig {
                capacity: 4,
                workers: 2,
            },
            |x: u32| {
                std::thread::sleep(Duration::from_millis(2));
                x + 1
            },
        ));
        let outcomes: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let core = Arc::clone(&core);
                    scope.spawn(move || {
                        let (mut ok, mut shed) = (0u64, 0u64);
                        for i in 0..25u32 {
                            match core.submit(t * 100 + i) {
                                Ok(rx) => {
                                    assert_eq!(rx.recv().unwrap(), Ok(t * 100 + i + 1));
                                    ok += 1;
                                }
                                Err(SubmitError::Overloaded { .. }) => shed += 1,
                                Err(SubmitError::Draining) => panic!("not draining"),
                            }
                        }
                        (ok, shed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total_ok: u64 = outcomes.iter().map(|(ok, _)| ok).sum();
        let total_shed: u64 = outcomes.iter().map(|(_, shed)| shed).sum();
        assert_eq!(total_ok + total_shed, 200, "every request got a verdict");
        let core = Arc::into_inner(core).expect("all submitters done");
        let stats = core.shutdown();
        assert_eq!(stats.served, total_ok);
        assert_eq!(stats.shed, total_shed);
    }

    #[test]
    fn concurrent_drain_overload_and_panics_lose_no_accepted_request() {
        // The three failure modes together: submitters racing a
        // mid-flight begin_drain, a queue small enough to shed, and a
        // handler that panics on a third of the inputs. The contract
        // under the combination: every submission gets exactly one
        // synchronous verdict, every *accepted* request gets exactly
        // one response (panicked ones as Err), and the final counters
        // balance — admitted == served, shed == refusals observed.
        quiet_panics(|| {
            let core = Arc::new(ServeCore::start(
                ServeConfig {
                    capacity: 3,
                    workers: 2,
                },
                |x: u32| {
                    std::thread::sleep(Duration::from_millis(1));
                    if x.is_multiple_of(3) {
                        panic!("chaos handler panic on {x}");
                    }
                    x + 1
                },
            ));
            let drainer = {
                let core = Arc::clone(&core);
                std::thread::spawn(move || {
                    std::thread::sleep(Duration::from_millis(20));
                    core.begin_drain();
                })
            };
            let outcomes: Vec<(u64, u64, u64, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..6)
                    .map(|t| {
                        let core = Arc::clone(&core);
                        scope.spawn(move || {
                            let (mut ok, mut panicked, mut shed, mut drained) = (0, 0, 0, 0u64);
                            for i in 0..40u32 {
                                let x = t * 1000 + i;
                                match core.submit(x) {
                                    Ok(rx) => {
                                        // An accepted request must be
                                        // answered even while draining.
                                        match rx.recv().expect("accepted request answered") {
                                            Ok(v) => {
                                                assert_eq!(v, x + 1);
                                                ok += 1;
                                            }
                                            Err(msg) => {
                                                assert!(
                                                    msg.contains("chaos handler panic"),
                                                    "{msg}"
                                                );
                                                panicked += 1;
                                            }
                                        }
                                    }
                                    Err(SubmitError::Overloaded { .. }) => shed += 1,
                                    Err(SubmitError::Draining) => drained += 1,
                                }
                            }
                            (ok, panicked, shed, drained)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            drainer.join().unwrap();
            let total: u64 = outcomes.iter().map(|o| o.0 + o.1 + o.2 + o.3).sum();
            assert_eq!(total, 240, "every submission got exactly one verdict");
            let ok: u64 = outcomes.iter().map(|o| o.0).sum();
            let panicked: u64 = outcomes.iter().map(|o| o.1).sum();
            let shed: u64 = outcomes.iter().map(|o| o.2).sum();
            let core = Arc::into_inner(core).expect("all submitters done");
            let stats = core.shutdown();
            assert_eq!(stats.admitted, ok + panicked, "admitted = answered");
            assert_eq!(stats.served, stats.admitted, "drain finished the queue");
            assert_eq!(stats.panicked, panicked);
            assert_eq!(stats.shed, shed);
            assert_eq!(stats.queue_depth, 0);
        });
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let config = BreakerConfig {
            failure_threshold: 3,
            cooldown: Duration::from_millis(100),
        };
        let mut breaker = CircuitBreaker::new(config);
        let t0 = Instant::now();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert!(breaker.admit(t0));

        // Two failures: still closed (threshold is 3).
        breaker.record_failure(t0);
        breaker.record_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Closed);
        // A success resets the consecutive count.
        breaker.record_success();
        breaker.record_failure(t0);
        breaker.record_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Closed);
        // Third consecutive failure trips it.
        breaker.record_failure(t0);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().opened, 1);

        // Open refuses until the cooldown elapses...
        assert!(!breaker.admit(t0 + Duration::from_millis(50)));
        // ...then admits exactly one half-open probe.
        let t1 = t0 + Duration::from_millis(100);
        assert!(breaker.admit(t1));
        assert_eq!(breaker.state(), BreakerState::HalfOpen);
        assert!(!breaker.admit(t1), "only one probe in flight");
        assert_eq!(breaker.stats().half_open_probes, 1);

        // Probe failure relapses to open and restarts the cooldown.
        breaker.record_failure(t1);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.stats().reopened, 1);
        assert!(!breaker.admit(t1 + Duration::from_millis(99)));
        let t2 = t1 + Duration::from_millis(100);
        assert!(breaker.admit(t2));

        // Probe success closes the breaker for good.
        breaker.record_success();
        assert_eq!(breaker.state(), BreakerState::Closed);
        assert_eq!(breaker.stats().closed_from_half_open, 1);
        assert!(breaker.admit(t2));
        let stats = breaker.stats();
        assert_eq!(stats.failures, 6);
        assert_eq!(stats.half_open_probes, 2);
    }

    #[test]
    fn ring_preference_is_stable_total_and_mostly_sticky() {
        let ring = HashRing::new(3, 64);
        assert_eq!(ring.nodes(), 3);
        // Preference lists are permutations of every node and are a
        // pure function of the key.
        for key in [0u64, 1, 42, u64::MAX, route_key(b"class Main { }")] {
            let pref = ring.preference(key);
            let mut sorted = pref.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "{pref:?}");
            assert_eq!(pref, ring.preference(key));
            assert_eq!(pref[0], ring.primary(key));
        }
        // Placement is reasonably balanced across many keys.
        let mut counts = [0usize; 3];
        for i in 0..3000u64 {
            counts[ring.primary(route_key(&i.to_le_bytes()))] += 1;
        }
        for &c in &counts {
            assert!((500..=1800).contains(&c), "unbalanced ring: {counts:?}");
        }
        // Consistency: growing 3 -> 4 nodes moves only the keys the new
        // node takes over — keys that stay on 0..=2 keep their primary.
        let grown = HashRing::new(4, 64);
        let mut moved_between_old_nodes = 0;
        for i in 0..3000u64 {
            let key = route_key(&i.to_le_bytes());
            let (before, after) = (ring.primary(key), grown.primary(key));
            if after != before && after != 3 {
                moved_between_old_nodes += 1;
            }
        }
        assert_eq!(
            moved_between_old_nodes, 0,
            "consistent hashing must not reshuffle keys between surviving nodes"
        );
    }

    #[test]
    fn route_key_is_stable() {
        // Pinned FNV-1a values: routers on different hosts must agree.
        assert_eq!(route_key(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(route_key(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(route_key(b"program-a"), route_key(b"program-b"));
    }
}
