//! `fleet-edit`: editor-like traffic through an in-process `Router`
//! over two `Server` shards (one worker each, summary cache and
//! coalescing on).
//!
//! The traffic is a script of editing sessions over generated programs.
//! Each session checks a fresh program (a cache miss and an fsync'd
//! record), repeats it, then sends `delta`s: a constant edit the cache
//! proves analysis-invisible (a warm replay), a one-handler edit the
//! analysis sees (an invalidation and a re-record), and exact repeats.
//! Clients are closed loops on persistent connections; a session runs
//! on one client, in order. Every pass runs the whole script against a
//! fresh fleet with empty caches, so each pass sees the same mix of
//! reads and writes however fast the fleet is.
//!
//! The shares of the mix — per session 1 fresh check, 2 constant edits,
//! 2 visible edits and 3 repeats — are an assumption, not a measurement:
//! no trace of editor traffic was at hand to take them from. Every run
//! prints the round-trip median and count of each kind, so the results
//! can be re-weighted for another mix.

use crate::gate::judge_frame;
use crate::pipeline::{check_split_note, gate_check_split, traced_check, traced_frontend};
use crate::trace::Recorder;
use crate::{
    end_to_end, out_dir, per_layer, stats, write_trace, Args, Outcome, Setup, SLOW_SETUP_REPEATS,
    WIDTH,
};
use leakchecker::target::resolve;
use leakchecker::{
    check, compute_keys, render_all, route_key, CheckTarget, DetectorConfig, HashRing, SummaryCache,
};
use leakchecker_bench::bump_one_constant;
use leakchecker_bench::metrics::{parse_exposition, Exposition};
use leakchecker_benchsuite::{generate, GenConfig, SplitMix64};
use leakchecker_cli::protocol::{
    parse_json, parse_metrics_response, parse_request, render_request, Json, Request,
};
use leakchecker_cli::{
    cached_target_of, json_fragment_of, RouteOptions, Router, ServeOptions, Server,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;

/// Editing sessions in the script.
pub const SESSIONS: usize = 16;
/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Handler counts of the sessions' programs run evenly from the first
/// to the second (about 300 to 1,800 statements).
pub const HANDLERS: (usize, usize) = (16, 96);

/// What one request exercises.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `check` of a program no shard has seen.
    Fresh,
    /// `delta` after a constant edit.
    ConstEdit,
    /// `delta` after an edit the analysis sees.
    VisibleEdit,
    /// The previous frame again.
    Repeat,
}

/// One request of the script.
#[derive(Clone, Debug)]
pub struct Step {
    /// The frame sent.
    pub frame: String,
    /// Index into [`Script::sources`] of the program it carries.
    pub source: usize,
    /// What it exercises.
    pub kind: Kind,
    /// `true` for `delta` frames.
    pub delta: bool,
}

/// The whole traffic of one pass, with the expected report texts.
#[derive(Clone, Debug)]
pub struct Script {
    /// Sessions, each a sequence of steps.
    pub sessions: Vec<Vec<Step>>,
    /// Distinct program texts.
    pub sources: Vec<String>,
    /// The report text an in-process `check` renders for each source.
    pub expected: Vec<String>,
}

/// Inserts a field read at the top of handler `handler`'s `handle`
/// method: one statement and one local more, so the method's semantic
/// hash changes while every id space of the program stays the same.
pub fn visible_edit(source: &str, handler: usize, n: usize) -> Option<String> {
    let class = source.find(&format!("class Handler{handler} {{"))?;
    let open = "void handle(int event) {";
    let at = class + source[class..].find(open)? + open.len();
    Some(format!(
        "{}\n    Registry{handler} seen{n} = this.registry;{}",
        &source[..at],
        &source[at..]
    ))
}

fn check_frame(source: &str) -> String {
    render_request(&Request::Check {
        id: None,
        source: source.to_string(),
        overrides: Default::default(),
    })
}

fn delta_frame(source: &str, changed: &str) -> String {
    render_request(&Request::Delta {
        id: None,
        source: source.to_string(),
        changed: vec![changed.to_string()],
        overrides: Default::default(),
    })
}

/// The report text a shard answers for `source`: every `@check` loop,
/// then every `@region` method, checked at jobs=1 and rendered.
///
/// # Errors
///
/// Compile or target errors.
pub fn expected_output(source: &str) -> Result<String, String> {
    let unit = leakchecker_frontend::compile(source).map_err(|e| e.to_string())?;
    let targets = unit
        .checked_loops
        .iter()
        .map(|&l| CheckTarget::Loop(l))
        .chain(unit.region_methods.iter().map(|&m| CheckTarget::Region(m)));
    let mut out = String::new();
    for target in targets {
        let result =
            check(&unit.program, target, DetectorConfig::default()).map_err(|e| e.to_string())?;
        out.push_str(&render_all(&result.program, &result.reports));
    }
    Ok(out)
}

/// Builds the script of `seed` and computes its expected outputs.
///
/// # Errors
///
/// A generated program that does not compile or cannot be edited.
pub fn script(seed: u64) -> Result<Script, String> {
    let (sessions, sources) = sessions(seed)?;
    let expected = sources
        .iter()
        .map(|s| expected_output(s))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Script {
        sessions,
        sources,
        expected,
    })
}

/// The sessions of `seed` and the distinct program texts they carry.
///
/// # Errors
///
/// A generated program that cannot be edited.
pub fn sessions(seed: u64) -> Result<(Vec<Vec<Step>>, Vec<String>), String> {
    let mut rng = SplitMix64::new(seed ^ 0xF1EE_7ED1);
    let mut sources: Vec<String> = Vec::new();
    let mut sessions = Vec::new();
    for k in 0..SESSIONS {
        let handlers = HANDLERS.0 + (HANDLERS.1 - HANDLERS.0) * k / (SESSIONS - 1);
        let p0 = generate(GenConfig {
            handlers,
            seed: rng.next_u64(),
            ..GenConfig::default()
        })
        .source;
        let h1 = rng.gen_range(0, handlers as u64) as usize;
        let h2 = rng.gen_range(0, handlers as u64) as usize;
        let p1 = bump_one_constant(&p0);
        let p2 = visible_edit(&p1, h1, 0).ok_or("handler not found")?;
        let p3 = bump_one_constant(&p2);
        let p4 = visible_edit(&p3, h2, 1).ok_or("handler not found")?;
        let base = sources.len();
        let pad = "Handler0.pad0".to_string();
        let handle = |h: usize| format!("Handler{h}.handle");
        let steps = vec![
            (check_frame(&p0), 0, Kind::Fresh, false),
            (check_frame(&p0), 0, Kind::Repeat, false),
            (delta_frame(&p1, &pad), 1, Kind::ConstEdit, true),
            (delta_frame(&p2, &handle(h1)), 2, Kind::VisibleEdit, true),
            (delta_frame(&p2, &handle(h1)), 2, Kind::Repeat, true),
            (delta_frame(&p3, &pad), 3, Kind::ConstEdit, true),
            (delta_frame(&p4, &handle(h2)), 4, Kind::VisibleEdit, true),
            (delta_frame(&p4, &handle(h2)), 4, Kind::Repeat, true),
        ];
        sources.extend([p0, p1, p2, p3, p4]);
        sessions.push(
            steps
                .into_iter()
                .map(|(frame, i, kind, delta)| Step {
                    frame,
                    source: base + i,
                    kind,
                    delta,
                })
                .collect(),
        );
    }
    Ok((sessions, sources))
}

/// Two shards and a router, with their cache directories.
struct Fleet {
    shards: Vec<Server>,
    router: Router,
    dirs: Vec<PathBuf>,
}

impl Fleet {
    fn start(tag: &str) -> Result<Fleet, String> {
        let mut shards = Vec::new();
        let mut dirs = Vec::new();
        for i in 0..SHARDS {
            let dir = out_dir().join(format!("fleet-{}-{tag}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            shards.push(
                Server::start(&ServeOptions {
                    workers: 1,
                    shard: Some(format!("shard{i}")),
                    cache: Some(dir.display().to_string()),
                    coalesce: true,
                    ..ServeOptions::default()
                })
                .map_err(|e| format!("shard {i}: {e:?}"))?,
            );
            dirs.push(dir);
        }
        let router = Router::start(&RouteOptions {
            shards: shards.iter().map(|s| s.local_addr().to_string()).collect(),
            ..RouteOptions::default()
        })
        .map_err(|e| format!("router: {e:?}"))?;
        Ok(Fleet {
            shards,
            router,
            dirs,
        })
    }

    fn stop(self) {
        self.router.drain();
        for shard in self.shards {
            shard.drain();
        }
        for dir in self.dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn shard_addrs(&self) -> Vec<String> {
        self.shards
            .iter()
            .map(|s| s.local_addr().to_string())
            .collect()
    }
}

/// One persistent line-protocol connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends one frame and waits for its answer; returns it with the
    /// round trip in microseconds.
    fn roundtrip(&mut self, frame: &str) -> Result<(String, f64), String> {
        let start = Instant::now();
        self.writer
            .write_all(frame.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("write: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok((
                line.trim_end().to_string(),
                start.elapsed().as_secs_f64() * 1e6,
            )),
            Err(e) => Err(format!("read: {e}")),
        }
    }
}

/// Per-request record of a pass.
struct Answer {
    kind: Kind,
    rtt_us: f64,
    judged: Result<(), String>,
    /// `Some(warm)` for delta answers.
    warm: Option<bool>,
}

/// What a traced pass needs beyond the router: the ring that places
/// each frame on its shard, the shards' addresses for the direct probes,
/// and where the replica stores live.
struct Tracer {
    ring: HashRing,
    shard_addrs: Vec<String>,
    replica_dir: PathBuf,
}

fn warm_of(frame: &str) -> Option<bool> {
    match parse_json(frame) {
        Ok(Json::Obj(obj)) => match obj.get("warm") {
            Some(Json::Num(n)) => Some(*n > 0),
            _ => None,
        },
        _ => None,
    }
}

/// The shard a frame is routed to first: the router keys checks on the
/// source text and every other frame on its canonical rendering.
fn primary(ring: &HashRing, frame: &str) -> Result<usize, String> {
    let key = match parse_request(frame)? {
        Request::Check { source, .. } => route_key(source.as_bytes()),
        other => route_key(render_request(&other).as_bytes()),
    };
    Ok(ring.preference(key)[0])
}

/// Replays one request's shard-side work in process: compile, resolve
/// and key, look the result up in the replica store, and on a miss
/// check (split by the replay), record and sync. Runs after the pass,
/// on a quiet machine, in each client's request order.
fn replica(rec: &mut Recorder, store: &mut SummaryCache, source: &str) -> Result<(), String> {
    let unit = traced_frontend(rec, source)?;
    let target = CheckTarget::Loop(*unit.checked_loops.first().ok_or("no @check loop")?);
    let config = DetectorConfig::default();
    let resolved = rec
        .span("target.resolve_us", "cache", || {
            resolve(&unit.program, target)
        })
        .map_err(|e| e.to_string())?;
    let keys = rec.span("cache.keys_us", "cache", || {
        compute_keys(&resolved.program, resolved.root, config.callgraph)
    });
    let key = keys.result_key(target, &config);
    if rec
        .span("cache.lookup_us", "cache", || store.lookup(key))
        .is_some()
    {
        return Ok(());
    }
    let (entry, _, _) = traced_check(rec, &unit, false, config, |result| {
        cached_target_of(result, json_fragment_of(target, result))
    })?;
    rec.span("cache.record_us", "cache", || {
        store
            .record(key, &entry)
            .and_then(|()| store.sync_methods(&keys))
    })
    .map_err(|e| format!("replica record: {e}"))
}

/// What one client did in a pass: its answers and, when traced, the
/// (sample, source) pairs whose shard-side work the replica replays
/// after the pass.
struct ClientRun {
    answers: Vec<Answer>,
    replays: Vec<(u64, usize)>,
}

/// Runs one client's sessions; with a tracer, adds the two probes after
/// each request.
fn client(
    router_addr: &str,
    script: &Script,
    mine: impl Iterator<Item = usize>,
    tracer: Option<(&Tracer, &mut Recorder)>,
    barrier: &Barrier,
) -> ClientRun {
    let mut run = ClientRun {
        answers: Vec::new(),
        replays: Vec::new(),
    };
    let conn = Conn::open(router_addr);
    let mut traced = tracer.map(|(t, rec)| {
        let direct: Result<Vec<Conn>, String> =
            t.shard_addrs.iter().map(|a| Conn::open(a)).collect();
        (t, rec, direct)
    });
    barrier.wait();
    let fail = |run: &mut ClientRun, kind, e| {
        run.answers.push(Answer {
            kind,
            rtt_us: 0.0,
            judged: Err(e),
            warm: None,
        })
    };
    let mut conn = match conn {
        Ok(c) => c,
        Err(e) => {
            fail(&mut run, Kind::Fresh, e);
            return run;
        }
    };
    for k in mine {
        for step in &script.sessions[k] {
            let (frame, rtt_us) = match conn.roundtrip(&step.frame) {
                Ok(r) => r,
                Err(e) => {
                    fail(&mut run, step.kind, e);
                    return run;
                }
            };
            let mut judged = judge_frame(&frame, &script.expected[step.source]);
            if let Some((t, rec, direct)) = traced.as_mut() {
                let sample = rec.next_sample();
                rec.derived("trace.total_us", "request", rtt_us);
                run.replays.push((sample, step.source));
                if let Err(e) = probe(rec, &mut conn, t, direct, step, &frame) {
                    judged = Err(format!("traced probe: {e}"));
                }
            }
            run.answers.push(Answer {
                kind: step.kind,
                rtt_us,
                judged,
                warm: if step.delta { warm_of(&frame) } else { None },
            });
        }
    }
    run
}

/// The per-request probes of a traced pass: the client-side protocol
/// parse, then the same frame again through the router and straight to
/// the shard the router places it on.
fn probe(
    rec: &mut Recorder,
    conn: &mut Conn,
    t: &Tracer,
    direct: &mut Result<Vec<Conn>, String>,
    step: &Step,
    response: &str,
) -> Result<(), String> {
    let direct = direct.as_mut().map_err(|e| e.clone())?;
    rec.span("protocol.parse_us", "request", || {
        parse_request(&step.frame)
    })?;
    rec.count(
        "protocol.frame_bytes",
        (step.frame.len() + response.len() + 2) as f64,
    );
    // The frame's result is now stored on its shard, so both probes are
    // warm answers from the same shard: their difference is the hop.
    let (_, routed) = conn.roundtrip(&step.frame)?;
    let (_, straight) = direct[primary(&t.ring, &step.frame)?].roundtrip(&step.frame)?;
    rec.derived("serve.direct_rtt_us", "request", straight);
    rec.derived("router.hop_us", "request", routed - straight);
    Ok(())
}

/// Outcome of one pass.
struct Pass {
    answers: Vec<Answer>,
    wall_secs: f64,
    /// Shard and router counters, scraped after the pass.
    counters: Counters,
}

/// Counters read from the fleet's `metrics` verb (strictly parsed).
#[derive(Clone, Copy, Debug, Default)]
struct Counters {
    served: f64,
    hits: f64,
    misses: f64,
    invalidated: f64,
    coalesced: f64,
    shed: f64,
    routed: f64,
    retries: f64,
}

fn scrape(addr: &str) -> Result<Exposition, String> {
    let mut conn = Conn::open(addr)?;
    let (frame, _) = conn.roundtrip("{\"kind\": \"metrics\"}")?;
    parse_exposition(&parse_metrics_response(&frame)?)
}

fn stats_cache_hits(addr: &str) -> Result<f64, String> {
    let mut conn = Conn::open(addr)?;
    let (frame, _) = conn.roundtrip("{\"kind\": \"stats\"}")?;
    let Ok(Json::Obj(obj)) = parse_json(&frame) else {
        return Err(format!("unparsable stats frame from {addr}"));
    };
    match obj.get("cache") {
        Some(Json::Obj(cache)) => match cache.get("hits") {
            Some(Json::Num(n)) => Ok(*n as f64),
            _ => Err("stats frame without cache hits".to_string()),
        },
        _ => Err("stats frame without a cache".to_string()),
    }
}

/// Reads every counter, and checks that the `stats` verb agrees with
/// the exposition and that the router counted exactly `routed` frames.
fn counters(fleet: &Fleet, routed: usize, direct: usize) -> Result<Counters, String> {
    let mut c = Counters::default();
    let value = |e: &Exposition, name: &str| {
        e.value(name)
            .ok_or_else(|| format!("exposition lacks {name}"))
    };
    for addr in fleet.shard_addrs() {
        let e = scrape(&addr)?;
        let hits = value(&e, "leakc_cache_hits_total")?;
        let stats_hits = stats_cache_hits(&addr)?;
        if hits != stats_hits {
            return Err(format!(
                "{addr}: metrics say {hits} cache hits, stats say {stats_hits}"
            ));
        }
        c.served += value(&e, "leakc_requests_served_total")?;
        c.hits += hits;
        c.misses += value(&e, "leakc_cache_misses_total")?;
        c.invalidated += value(&e, "leakc_cache_invalidated_total")?;
        c.coalesced += value(&e, "leakc_requests_coalesced_total")?;
        c.shed += value(&e, "leakc_requests_shed_total")?;
    }
    let e = scrape(&fleet.router.local_addr().to_string())?;
    c.routed = value(&e, "leakc_router_routed_total")?;
    c.retries = value(&e, "leakc_router_retries_total")?;
    if c.routed != routed as f64 {
        return Err(format!(
            "router routed {} frames, the clients sent {routed}",
            c.routed
        ));
    }
    if c.retries == 0.0 && c.served != (routed + direct) as f64 {
        return Err(format!(
            "shards served {} requests, the clients sent {}",
            c.served,
            routed + direct
        ));
    }
    Ok(c)
}

/// Runs the script once against a fresh fleet with `clients` clients.
fn pass(
    script: &Script,
    clients: usize,
    tag: &str,
    mut rec: Option<&mut Recorder>,
) -> Result<Pass, String> {
    let fleet = Fleet::start(tag)?;
    let router_addr = fleet.router.local_addr().to_string();
    let tracer = rec.is_some().then(|| Tracer {
        ring: HashRing::new(SHARDS, RouteOptions::default().vnodes),
        shard_addrs: fleet.shard_addrs(),
        replica_dir: out_dir().join(format!("fleet-{}-{tag}-replica", std::process::id())),
    });
    let barrier = Barrier::new(clients + 1);
    let mut recorders: Vec<Recorder> = (0..clients)
        .map(|c| Recorder::with_base(1_000_000 * (c as u64 + 1)))
        .collect();
    let (runs, wall_secs) = std::thread::scope(|scope| {
        let handles: Vec<_> = recorders
            .iter_mut()
            .enumerate()
            .map(|(c, r)| {
                let (router_addr, barrier, tracer) = (&router_addr, &barrier, tracer.as_ref());
                scope.spawn(move || {
                    let mine = (c..script.sessions.len()).step_by(clients);
                    client(router_addr, script, mine, tracer.map(|t| (t, r)), barrier)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let runs: Vec<ClientRun> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (runs, start.elapsed().as_secs_f64())
    });
    let sent: usize = runs.iter().map(|r| r.answers.len()).sum();
    let (routed, direct) = if tracer.is_some() {
        (2 * sent, sent)
    } else {
        (sent, 0)
    };
    let counted = counters(&fleet, routed, direct);
    fleet.stop();
    let mut answers = Vec::new();
    for (c, (run, mut r)) in runs.into_iter().zip(recorders).enumerate() {
        if let Some(t) = &tracer {
            let dir = t.replica_dir.join(format!("client{c}"));
            let mut store = SummaryCache::open(&dir).map_err(|e| format!("replica store: {e}"))?;
            for (sample, source) in run.replays {
                r.resume(sample);
                replica(&mut r, &mut store, &script.sources[source])?;
            }
        }
        if let Some(rec) = rec.as_deref_mut() {
            rec.absorb(r);
        }
        answers.extend(run.answers);
    }
    if let Some(t) = &tracer {
        let _ = std::fs::remove_dir_all(&t.replica_dir);
    }
    Ok(Pass {
        answers,
        wall_secs,
        counters: counted?,
    })
}

/// `fleet-edit`.
pub fn fleet_edit(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    // Set-up: the script with its in-process reference outputs, and one
    // fleet start and stop (each pass starts its own fleet the same way).
    let mut n = 0;
    let made = Setup::first(
        move || {
            n += 1;
            let s = script(args.seed)?;
            Fleet::start(&format!("setup{n}"))?.stop();
            Ok(s)
        },
        args.seconds,
        SLOW_SETUP_REPEATS,
    );
    let (script, setup) = match made {
        Ok(made) => made,
        Err(e) => {
            outcome.fatal(format!("set-up failed: {e}"));
            return outcome;
        }
    };
    if args.trace {
        traced(args, &script, &mut outcome);
    } else {
        untraced(args, &script, setup, &mut outcome);
    }
    outcome
}

fn record(outcome: &mut Outcome, pass: &Pass, rtts: &mut Vec<f64>) {
    for a in &pass.answers {
        outcome.judge(a.judged.clone());
        if a.judged.is_ok() {
            rtts.push(a.rtt_us / 1e3);
        }
    }
}

/// The end-to-end run: passes with one client and with [`WIDTH`]
/// clients alternate until the time is up, with the set-up repeats in
/// between.
fn untraced<F>(args: &Args, script: &Script, mut setup: Setup<F>, outcome: &mut Outcome)
where
    F: FnMut() -> Result<Script, String>,
{
    let (mut one, mut par, mut par_secs) = (Vec::new(), Vec::new(), 0.0);
    let mut kinds: Vec<(Kind, Vec<f64>)> = [
        Kind::Fresh,
        Kind::ConstEdit,
        Kind::VisibleEdit,
        Kind::Repeat,
    ]
    .into_iter()
    .map(|k| (k, Vec::new()))
    .collect();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    // A pass takes 5–15 s, so the deadline is checked after every pass,
    // not after every pair, once each width has had one.
    for n in 1.. {
        let clients = if n % 2 == 1 { 1 } else { WIDTH };
        match pass(script, clients, &format!("p{n}"), None) {
            Ok(p) if clients == 1 => record(outcome, &p, &mut one),
            Ok(p) => {
                record(outcome, &p, &mut par);
                par_secs += p.wall_secs;
                for a in p.answers.iter().filter(|a| a.judged.is_ok()) {
                    if let Some((_, rtts)) = kinds.iter_mut().find(|(k, _)| *k == a.kind) {
                        rtts.push(a.rtt_us / 1e3);
                    }
                }
            }
            Err(e) => {
                outcome.fatal(format!("pass {n}: {e}"));
                return;
            }
        }
        if let Err(e) = setup.between_passes() {
            outcome.fatal(format!("set-up repeat failed: {e}"));
            return;
        }
        if n >= 2 && Instant::now() >= deadline {
            break;
        }
    }
    let setups = match setup.finish() {
        Ok(times) => times,
        Err(e) => {
            outcome.fatal(format!("set-up repeat failed: {e}"));
            return;
        }
    };
    outcome.metrics = end_to_end(&one, &par, par_secs, &setups);
    outcome.setups = setups;
    outcome.notes = kinds
        .iter()
        .map(|(kind, rtts)| {
            format!(
                "{kind:?}: round trip p50 {:.3} ms over {} requests at {WIDTH} clients",
                stats::median(rtts).unwrap_or(0.0),
                rtts.len()
            )
        })
        .collect();
}

/// The traced run: untraced and traced passes at [`WIDTH`] clients
/// alternate. Counters and the delta hit ratio come from the untraced
/// passes (the traced ones add probe traffic); timings from the traced.
fn traced(args: &Args, script: &Script, outcome: &mut Outcome) {
    let mut rec = Recorder::default();
    let (mut plain_rtts, mut traced_rtts) = (Vec::new(), Vec::new());
    let mut per_pass: Vec<Counters> = Vec::new();
    let (mut warm, mut deltas) = (0usize, 0usize);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    let mut n = 0;
    loop {
        n += 1;
        match pass(script, WIDTH, &format!("u{n}"), None) {
            Ok(p) => {
                record(outcome, &p, &mut plain_rtts);
                for a in &p.answers {
                    if let Some(w) = a.warm {
                        deltas += 1;
                        warm += usize::from(w);
                    }
                }
                per_pass.push(p.counters);
            }
            Err(e) => {
                outcome.fatal(format!("pass u{n}: {e}"));
                return;
            }
        }
        match pass(script, WIDTH, &format!("t{n}"), Some(&mut rec)) {
            Ok(p) => record(outcome, &p, &mut traced_rtts),
            Err(e) => {
                outcome.fatal(format!("pass t{n}: {e}"));
                return;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if let Err(e) = gate_check_split(&rec, 0.05) {
        outcome.fatal(format!("check split does not reconcile: {e}"));
    }
    outcome.notes.push(check_split_note(&rec));
    let counter = |f: fn(&Counters) -> f64| {
        let values: Vec<f64> = per_pass.iter().map(f).collect();
        (stats::median(&values).unwrap_or(0.0), values.len())
    };
    let fixed = [
        ("cache.hits", counter(|c| c.hits)),
        ("cache.misses", counter(|c| c.misses)),
        ("cache.invalidated", counter(|c| c.invalidated)),
        ("serve.coalesced", counter(|c| c.coalesced)),
        ("serve.shed", counter(|c| c.shed)),
        ("router.retries", counter(|c| c.retries)),
        (
            "cache.delta_hit_ratio",
            (warm as f64 / deltas.max(1) as f64, deltas),
        ),
        (
            "trace.overhead_us",
            (
                (stats::median(&traced_rtts).unwrap_or(0.0)
                    - stats::median(&plain_rtts).unwrap_or(0.0))
                    * 1e3,
                traced_rtts.len(),
            ),
        ),
        ("parallel.overhead_us", (0.0, 0)),
    ];
    let fixed: Vec<(&str, f64, usize)> = fixed.iter().map(|&(k, (v, n))| (k, v, n)).collect();
    outcome.metrics = per_layer(&rec, &fixed);
    if let Err(e) = write_trace(&rec, args) {
        outcome.fatal(format!("cannot write the trace: {e}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_cli::protocol::{render_check_ok, render_error};

    #[test]
    fn same_seed_gives_byte_identical_sessions() {
        let (a, sa) = sessions(7).unwrap();
        let (b, sb) = sessions(7).unwrap();
        let frames = |s: &[Vec<Step>]| -> Vec<String> {
            s.iter().flatten().map(|st| st.frame.clone()).collect()
        };
        assert_eq!(frames(&a), frames(&b));
        assert_eq!(sa, sb);
        let (c, _) = sessions(8).unwrap();
        assert_ne!(frames(&a), frames(&c));
    }

    #[test]
    fn edits_hit_and_miss_the_cache_as_the_mix_says() {
        let (_, sources) = sessions(3).unwrap();
        let key = |src: &str| {
            let unit = leakchecker_frontend::compile(src).unwrap();
            let target = CheckTarget::Loop(unit.checked_loops[0]);
            let resolved = resolve(&unit.program, target).unwrap();
            let keys = compute_keys(
                &resolved.program,
                resolved.root,
                DetectorConfig::default().callgraph,
            );
            (
                keys.shape,
                keys.result_key(target, &DetectorConfig::default()),
            )
        };
        // Session 0 carries p0..p4: p1 and p3 are constant edits of p0
        // and p2, p2 and p4 edits the analysis sees.
        let k: Vec<(u64, u64)> = sources[..5].iter().map(|s| key(s)).collect();
        assert_eq!(k[0], k[1], "a constant edit must replay warm");
        assert_ne!(k[1].1, k[2].1, "a visible edit must miss");
        assert_eq!(k[1].0, k[2].0, "a visible edit keeps every id space");
        assert_eq!(k[2], k[3]);
        assert_ne!(k[3].1, k[4].1);
    }

    #[test]
    fn verdict_gate_fails_an_altered_frame() {
        let source = generate(GenConfig {
            handlers: 6,
            ..GenConfig::default()
        })
        .source;
        let expected = expected_output(&source).unwrap();
        assert!(!expected.is_empty());
        let ok = render_check_ok(&None, 1, 2, false, &expected);
        assert!(judge_frame(&ok, &expected).is_ok());
        let altered = render_check_ok(&None, 1, 2, false, &expected.replacen("new", "now", 1));
        assert!(judge_frame(&altered, &expected).is_err());
        let dropped = render_check_ok(&None, 1, 1, false, expected.lines().next().unwrap());
        assert!(judge_frame(&dropped, &expected).is_err());
        assert!(judge_frame(&render_error(&None, "boom"), &expected).is_err());
        assert!(judge_frame("{\"status\": \"ok\"", &expected).is_err());
    }
}
