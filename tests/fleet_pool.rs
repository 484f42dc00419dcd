//! Pooled router→shard connections under chaos (DESIGN.md §14,
//! "Connections").
//!
//! The router keeps idle connections to each shard and reuses them.
//! These drills pin the two rules that make reuse safe: a connection
//! that saw a timeout, a torn frame or a refusal is never reused, so a
//! late answer cannot be read as the reply to a later request; and a
//! reused connection the shard closed while it sat idle is a stale
//! socket, retried once on a fresh connection without a breaker failure
//! or a retry being counted. One shard sits behind a [`ChaosProxy`];
//! the background prober is slowed so only requests touch the pool.

use leakchecker_bench::chaos::{parse_chaos_plan, ChaosProxy};
use leakchecker_cli::protocol::{json_escape, parse_json, Json};
use leakchecker_cli::{RouteOptions, Router, ServeOptions, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const LEAKY: &str = "\
class Item { int tag; }
class Registry { Item[] slots; int n;
  void put(Item it) { slots[n] = it; n = n + 1; } }
class Main {
  static void main() {
    Registry r = new Registry(); r.slots = new Item[4096];
    @check while (nondet()) { Item it = new Item(); r.put(it); } } }";

/// A check frame whose id and source both vary with `index`, so a
/// reply read off the wrong request cannot pass for the right one.
fn check_frame(index: usize) -> String {
    let source = LEAKY.replace("4096", &format!("{}", 4096 + index));
    format!(
        r#"{{"kind": "check", "id": {index}, "source": "{}"}}"#,
        json_escape(&source)
    )
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// Sends one frame; returns the reply line, empty if the peer
    /// closed the connection first.
    fn send(&mut self, frame: &str) -> String {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .expect("write");
        let mut line = String::new();
        let _ = self.reader.read_line(&mut line);
        line.trim_end().to_string()
    }
}

/// One shard, a chaos proxy in front of it, and a router over the
/// proxy whose prober probes once at start-up and then sleeps.
struct Rig {
    shard: Server,
    proxy: ChaosProxy,
    router: Router,
}

impl Rig {
    fn start(plan: &str, options: RouteOptions) -> Rig {
        let shard = Server::start(&ServeOptions {
            shard: Some("shard-0".to_string()),
            ..ServeOptions::default()
        })
        .expect("start shard");
        let proxy = ChaosProxy::start(shard.local_addr(), parse_chaos_plan(plan).expect("plan"))
            .expect("start proxy");
        let router = Router::start(&RouteOptions {
            shards: vec![proxy.local_addr().to_string()],
            backoff_ms: 5,
            probe_interval_ms: 60_000,
            ..options
        })
        .expect("start router");
        Rig {
            shard,
            proxy,
            router,
        }
    }

    /// The reply the shard gives `frame` with no router or proxy in
    /// between.
    fn direct(&self, frame: &str) -> String {
        Client::connect(self.shard.local_addr()).send(frame)
    }

    /// The router's retry counter and the shard's breaker failures.
    fn counters(&self) -> (i64, i64) {
        let stats = Client::connect(self.router.local_addr()).send(r#"{"kind": "stats"}"#);
        let Ok(Json::Obj(stats)) = parse_json(&stats) else {
            panic!("unparseable router stats: {stats}");
        };
        let num = |obj: &std::collections::BTreeMap<String, Json>, key: &str| match obj.get(key) {
            Some(Json::Num(n)) => *n,
            other => panic!("stats[{key}] = {other:?}"),
        };
        let Some(Json::Arr(shards)) = stats.get("shards") else {
            panic!("no shards array in router stats");
        };
        let Json::Obj(shard0) = &shards[0] else {
            panic!("shard entry is not an object");
        };
        (num(&stats, "retries"), num(shard0, "failures"))
    }

    fn stop(self) {
        self.router.request_shutdown();
        assert!(self.router.drain(), "router must drain cleanly");
        self.proxy.stop();
        self.shard.drain();
    }
}

#[test]
fn revived_shard_is_reached_over_a_fresh_connection_without_a_failure() {
    let rig = Rig::start("kill@1:150", RouteOptions::default());
    let mut client = Client::connect(rig.router.local_addr());
    let first = client.send(&check_frame(1));
    assert_eq!(first, rig.direct(&check_frame(1)));

    // Kill the shard from a side connection (work request 1): every
    // connection the router keeps idle in its pool is cut with it.
    let connections = rig.proxy.connections();
    let cut = Client::connect(rig.proxy.local_addr()).send(&check_frame(99));
    assert_eq!(cut, "", "the killing request gets no answer");
    std::thread::sleep(Duration::from_millis(400));
    let before = rig.counters();

    let reply = client.send(&check_frame(2));
    assert_eq!(reply, rig.direct(&check_frame(2)));
    assert_eq!(
        rig.counters(),
        before,
        "a stale idle socket must cost no breaker failure and no retry"
    );
    assert_eq!(before, (0, 0));
    assert_eq!(
        rig.proxy.connections(),
        connections + 2,
        "the side connection plus exactly one fresh router connection"
    );
    rig.stop();
}

#[test]
fn a_stalled_answer_is_never_read_as_the_next_reply() {
    let rig = Rig::start(
        "stall@0:1000",
        RouteOptions {
            attempt_timeout_ms: 300,
            retries: 0,
            ..RouteOptions::default()
        },
    );
    let mut client = Client::connect(rig.router.local_addr());
    let stalled = client.send(&check_frame(1));
    assert!(
        stalled.starts_with("{\"id\": 1, \"status\": \"unavailable\""),
        "{stalled}"
    );
    // The stalled connection was dropped: the next request gets its own
    // answer, during the stall and after the late answer was sent.
    assert_eq!(client.send(&check_frame(2)), rig.direct(&check_frame(2)));
    std::thread::sleep(Duration::from_millis(1000));
    assert_eq!(client.send(&check_frame(3)), rig.direct(&check_frame(3)));
    rig.stop();
}

#[test]
fn torn_and_dropped_frames_stay_counted_failures() {
    // torn@1: response bytes arrived, so the connection was not stale —
    // one breaker failure, one retry, then the shard's own answer.
    // drop@1,drop@2: the drop on the reused connection looks exactly
    // like a stale idle socket and is retried once on a fresh one; the
    // drop there is a counted failure and retry, as without a pool.
    for plan in ["torn@1", "drop@1,drop@2"] {
        let rig = Rig::start(plan, RouteOptions::default());
        let mut client = Client::connect(rig.router.local_addr());
        for index in 0..3 {
            let reply = client.send(&check_frame(index));
            assert_eq!(reply, rig.direct(&check_frame(index)), "plan {plan}");
        }
        assert_eq!(rig.counters(), (1, 1), "plan {plan}");
        rig.stop();
    }
}
