//! Chaos harness: a fault-injecting TCP proxy for fleet drills.
//!
//! [`ChaosProxy`] sits between a router and one shard and injects
//! faults from a [`ChaosPlan`] — a deterministic schedule keyed by the
//! proxy's *work-request clock* (the count of `check`/`panic` lines it
//! has seen; `health`/`stats` probes pass through without advancing the
//! clock, so background probing never shifts the schedule). The plan
//! DSL mirrors the detector's own `--inject` specs:
//!
//! * `kill@N[:ms]` — when work request N arrives, the shard "crashes":
//!   every open connection — idle ones included, as a real process exit
//!   closes them — is shut down and new connections are refused. With
//!   `:ms`, the shard "restarts" after that many milliseconds (the proxy
//!   resumes forwarding), which is what walks a router's circuit
//!   breaker through open → half-open → closed.
//! * `stall@N:ms` — work request N stalls for `ms` before being
//!   forwarded (a wedged socket; hedging territory).
//! * `drop@N` — the connection carrying work request N is closed
//!   before the request reaches the shard.
//! * `torn@N` — work request N is served by the shard, but only half
//!   of the response bytes reach the client, with no trailing newline
//!   (a process dying mid-write; the router must treat the torn frame
//!   as a transport failure, not parse it).
//!
//! The proxy never invents response bytes, so everything a client does
//! receive through it is something the shard really said — the chaos
//! tests' byte-identical assertion rests on that.
//!
//! The harness also injects *disk* faults into a persistent summary
//! cache file ([`parse_disk_plan`] / [`apply_disk_plan`]), keyed by
//! record index (line 0 is the header):
//!
//! * `torn-cache@N` — cut the file mid-record N, no trailing newline
//!   (a process killed mid-append; the loader must truncate the torn
//!   tail).
//! * `flip@N:byte` — invert one byte of record N (bit rot / partial
//!   sector write; the record checksum must catch it).
//! * `trunc@N` — truncate the file at the start of record N (a lost
//!   tail after an fsync barrier was skipped).
//!
//! The cache's contract under every one of these is *degrade to a
//! miss, never to a wrong answer* — the chaos gate re-checks warm
//! after injection and byte-compares against a cache-disabled run.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One injectable fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Close every connection and refuse new ones; with `revive_ms`,
    /// come back after that long.
    Kill {
        /// Milliseconds until the "shard" accepts traffic again
        /// (`None` = stays dead).
        revive_ms: Option<u64>,
    },
    /// Delay forwarding the request by this many milliseconds.
    Stall {
        /// Stall duration in milliseconds.
        ms: u64,
    },
    /// Close the connection before the request reaches the shard.
    Drop,
    /// Forward the request, then write only half of the shard's
    /// response — no trailing newline — and close.
    Torn,
}

/// A deterministic fault schedule keyed by work-request index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    faults: Vec<(usize, Fault)>,
}

impl ChaosPlan {
    /// The fault scheduled for work request `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<Fault> {
        self.faults
            .iter()
            .find(|(at, _)| *at == index)
            .map(|&(_, fault)| fault)
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Parses the chaos DSL: comma-separated `kill@N[:ms]`, `stall@N:ms`,
/// `drop@N`, `torn@N` terms.
///
/// # Errors
///
/// Unknown fault names, malformed indices, missing or extra arguments,
/// and duplicate indices are all reported with the offending term.
pub fn parse_chaos_plan(spec: &str) -> Result<ChaosPlan, String> {
    let mut faults: Vec<(usize, Fault)> = Vec::new();
    for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
        let term = term.trim();
        let (name, rest) = term
            .split_once('@')
            .ok_or_else(|| format!("chaos term `{term}` needs `name@index`"))?;
        let (index_str, arg) = match rest.split_once(':') {
            Some((i, a)) => (i, Some(a)),
            None => (rest, None),
        };
        let index: usize = index_str
            .parse()
            .map_err(|_| format!("chaos term `{term}`: bad index `{index_str}`"))?;
        let parse_ms = |a: &str| -> Result<u64, String> {
            a.parse()
                .map_err(|_| format!("chaos term `{term}`: bad milliseconds `{a}`"))
        };
        let fault = match name {
            "kill" => Fault::Kill {
                revive_ms: arg.map(parse_ms).transpose()?,
            },
            "stall" => Fault::Stall {
                ms: arg
                    .map(parse_ms)
                    .transpose()?
                    .ok_or_else(|| format!("chaos term `{term}` needs `stall@N:ms`"))?,
            },
            "drop" => {
                if arg.is_some() {
                    return Err(format!("chaos term `{term}`: drop takes no argument"));
                }
                Fault::Drop
            }
            "torn" => {
                if arg.is_some() {
                    return Err(format!("chaos term `{term}`: torn takes no argument"));
                }
                Fault::Torn
            }
            other => return Err(format!("unknown chaos fault `{other}` in `{term}`")),
        };
        if faults.iter().any(|(at, _)| *at == index) {
            return Err(format!("duplicate chaos index {index}"));
        }
        faults.push((index, fault));
    }
    faults.sort_by_key(|&(at, _)| at);
    Ok(ChaosPlan { faults })
}

/// `None` = alive; `Some(None)` = dead for good; `Some(Some(t))` =
/// dead until instant `t`.
type KillState = Option<Option<Instant>>;

struct Shared {
    plan: ChaosPlan,
    /// The work-request clock: `check`/`panic` lines seen so far.
    clock: AtomicUsize,
    /// Lines actually forwarded to the shard (all kinds).
    forwarded: AtomicUsize,
    /// The work-request lines that really reached the shard, verbatim —
    /// the chaos tests assert over these (e.g. that a router never
    /// dispatched a `"deadline_ms": 0` frame).
    work_frames: Mutex<Vec<String>>,
    killed: Mutex<KillState>,
    stop: AtomicBool,
    /// Client connections accepted so far (refused ones not counted).
    accepted: AtomicUsize,
    /// The open client connections by accept index, so a kill can cut
    /// them all at once.
    open: Mutex<Vec<(usize, TcpStream)>>,
}

impl Shared {
    /// Whether the simulated shard is currently dead, clearing the kill
    /// once its revive time passes.
    fn is_killed(&self) -> bool {
        let mut killed = self.killed.lock().unwrap();
        match *killed {
            None => false,
            Some(None) => true,
            Some(Some(revive_at)) => {
                if Instant::now() >= revive_at {
                    *killed = None;
                    false
                } else {
                    true
                }
            }
        }
    }

    fn kill(&self, revive_ms: Option<u64>) {
        *self.killed.lock().unwrap() =
            Some(revive_ms.map(|ms| Instant::now() + Duration::from_millis(ms)));
        for (_, stream) in self.open.lock().unwrap().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// A running chaos proxy in front of one upstream shard.
pub struct ChaosProxy {
    shared: Arc<Shared>,
    accept_handle: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

fn proxy_connection(client: TcpStream, upstream_addr: SocketAddr, shared: &Shared) {
    let Ok(client_read) = client.try_clone() else {
        return;
    };
    let mut client_reader = BufReader::new(client_read);
    let mut client_writer = client;
    // One upstream connection per client connection, mirroring how the
    // router talks to a real shard.
    let Ok(upstream) = TcpStream::connect(upstream_addr) else {
        return;
    };
    let _ = upstream.set_nodelay(true);
    let Ok(upstream_read) = upstream.try_clone() else {
        return;
    };
    let mut upstream_reader = BufReader::new(upstream_read);
    let mut upstream_writer = upstream;

    let mut line = String::new();
    loop {
        line.clear();
        match client_reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if shared.stop.load(Ordering::SeqCst) || shared.is_killed() {
            return; // dead shard: cut the connection mid-conversation
        }
        // Only work requests advance the fault clock; health/stats
        // probes flow freely so background probing cannot shift a
        // deterministic schedule.
        let is_work = line.contains("\"kind\": \"check\"") || line.contains("\"kind\": \"panic\"");
        let fault = if is_work {
            let index = shared.clock.fetch_add(1, Ordering::SeqCst);
            shared.plan.fault_at(index)
        } else {
            None
        };
        let mut torn = false;
        match fault {
            Some(Fault::Kill { revive_ms }) => {
                shared.kill(revive_ms);
                return;
            }
            Some(Fault::Drop) => return,
            Some(Fault::Stall { ms }) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Fault::Torn) => torn = true,
            None => {}
        }
        if upstream_writer
            .write_all(line.as_bytes())
            .and_then(|()| upstream_writer.flush())
            .is_err()
        {
            return;
        }
        shared.forwarded.fetch_add(1, Ordering::SeqCst);
        if is_work {
            shared
                .work_frames
                .lock()
                .unwrap()
                .push(line.trim_end().to_string());
        }
        let mut response = String::new();
        match upstream_reader.read_line(&mut response) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if torn {
            // Die mid-write: half the bytes, no newline, connection
            // gone. The client must treat this as a transport failure.
            let half = &response.as_bytes()[..response.len() / 2];
            let _ = client_writer
                .write_all(half)
                .and_then(|()| client_writer.flush());
            return;
        }
        if client_writer
            .write_all(response.as_bytes())
            .and_then(|()| client_writer.flush())
            .is_err()
        {
            return;
        }
    }
}

impl ChaosProxy {
    /// Binds an ephemeral local port and proxies every connection to
    /// `upstream`, injecting `plan`'s faults.
    ///
    /// # Errors
    ///
    /// Local bind failures.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> Result<ChaosProxy, String> {
        let listener = TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("chaos proxy: cannot bind: {e}"))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| format!("chaos proxy: no local addr: {e}"))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("chaos proxy: set_nonblocking: {e}"))?;
        let shared = Arc::new(Shared {
            plan,
            clock: AtomicUsize::new(0),
            forwarded: AtomicUsize::new(0),
            work_frames: Mutex::new(Vec::new()),
            killed: Mutex::new(None),
            stop: AtomicBool::new(false),
            accepted: AtomicUsize::new(0),
            open: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        // A dead shard refuses new connections: accept
                        // and immediately close, which the client sees
                        // as a reset.
                        if accept_shared.is_killed() {
                            drop(stream);
                            continue;
                        }
                        let _ = stream.set_nonblocking(false);
                        let _ = stream.set_nodelay(true);
                        let index = accept_shared.accepted.fetch_add(1, Ordering::SeqCst);
                        if let Ok(clone) = stream.try_clone() {
                            accept_shared.open.lock().unwrap().push((index, clone));
                        }
                        let conn_shared = Arc::clone(&accept_shared);
                        std::thread::spawn(move || {
                            proxy_connection(stream, upstream, &conn_shared);
                            conn_shared
                                .open
                                .lock()
                                .unwrap()
                                .retain(|(i, _)| *i != index);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => {}
                }
            }
        });
        Ok(ChaosProxy {
            shared,
            accept_handle: Some(accept_handle),
            local_addr,
        })
    }

    /// The proxy's own listen address (front this instead of the shard).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Work requests (check/panic) the fault clock has counted.
    pub fn work_requests_seen(&self) -> usize {
        self.shared.clock.load(Ordering::SeqCst)
    }

    /// Client connections accepted while the shard was alive.
    pub fn connections(&self) -> usize {
        self.shared.accepted.load(Ordering::SeqCst)
    }

    /// Lines of any kind forwarded to the shard.
    pub fn forwarded(&self) -> usize {
        self.shared.forwarded.load(Ordering::SeqCst)
    }

    /// The work-request lines that actually reached the shard, in
    /// arrival order.
    pub fn work_frames(&self) -> Vec<String> {
        self.shared.work_frames.lock().unwrap().clone()
    }

    /// Stops the accept loop and closes down (open connections die on
    /// their next read/write).
    pub fn stop(mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

/// One injectable cache-file fault.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum DiskFault {
    /// Cut the file partway through this record, dropping everything
    /// after it and leaving no trailing newline.
    TornCache,
    /// Invert one byte of the record (offset clamped inside the
    /// record's content, never its terminating newline).
    Flip {
        /// Byte offset within the record to invert.
        byte: usize,
    },
    /// Truncate the file at the start of this record.
    Trunc,
}

/// A deterministic cache-file fault schedule keyed by record index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DiskPlan {
    faults: Vec<(usize, DiskFault)>,
}

impl DiskPlan {
    /// The fault scheduled for record `index`, if any.
    pub fn fault_at(&self, index: usize) -> Option<DiskFault> {
        self.faults
            .iter()
            .find(|(at, _)| *at == index)
            .map(|&(_, fault)| fault)
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled faults in record order.
    pub fn faults(&self) -> &[(usize, DiskFault)] {
        &self.faults
    }
}

/// Parses the disk-fault DSL: comma-separated `torn-cache@N`,
/// `flip@N:byte`, `trunc@N` terms, where N is a record index in the
/// cache file (record 0 is the header line).
///
/// # Errors
///
/// Unknown fault names, malformed indices, missing or extra arguments,
/// and duplicate indices are all reported with the offending term.
pub fn parse_disk_plan(spec: &str) -> Result<DiskPlan, String> {
    let mut faults: Vec<(usize, DiskFault)> = Vec::new();
    for term in spec.split(',').filter(|t| !t.trim().is_empty()) {
        let term = term.trim();
        let (name, rest) = term
            .split_once('@')
            .ok_or_else(|| format!("disk fault `{term}` needs `name@record`"))?;
        let (index_str, arg) = match rest.split_once(':') {
            Some((i, a)) => (i, Some(a)),
            None => (rest, None),
        };
        let index: usize = index_str
            .parse()
            .map_err(|_| format!("disk fault `{term}`: bad record index `{index_str}`"))?;
        let fault = match name {
            "torn-cache" => {
                if arg.is_some() {
                    return Err(format!("disk fault `{term}`: torn-cache takes no argument"));
                }
                DiskFault::TornCache
            }
            "flip" => DiskFault::Flip {
                byte: arg
                    .ok_or_else(|| format!("disk fault `{term}` needs `flip@N:byte`"))?
                    .parse()
                    .map_err(|_| format!("disk fault `{term}`: bad byte offset"))?,
            },
            "trunc" => {
                if arg.is_some() {
                    return Err(format!("disk fault `{term}`: trunc takes no argument"));
                }
                DiskFault::Trunc
            }
            other => return Err(format!("unknown disk fault `{other}` in `{term}`")),
        };
        if faults.iter().any(|(at, _)| *at == index) {
            return Err(format!("duplicate disk-fault record index {index}"));
        }
        faults.push((index, fault));
    }
    faults.sort_by_key(|&(at, _)| at);
    Ok(DiskPlan { faults })
}

/// Applies a [`DiskPlan`] to a summary-cache file in place, returning
/// one description per applied fault.
///
/// Records are the file's newline-terminated lines (record 0 is the
/// header). Byte flips land on every record that survives the cut;
/// `torn-cache`/`trunc` establish the cut point (the smallest such
/// index wins when several are scheduled).
///
/// # Errors
///
/// I/O failures and out-of-range record indices — a CI plan that names
/// a record the file does not have is a stale plan, not a no-op.
pub fn apply_disk_plan(path: &Path, plan: &DiskPlan) -> Result<Vec<String>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("chaos: read {}: {e}", path.display()))?;
    let mut records: Vec<Vec<u8>> = Vec::new();
    let mut start = 0usize;
    for (i, &b) in bytes.iter().enumerate() {
        if b == b'\n' {
            records.push(bytes[start..=i].to_vec());
            start = i + 1;
        }
    }
    if start < bytes.len() {
        records.push(bytes[start..].to_vec()); // already-torn tail
    }
    for &(index, _) in &plan.faults {
        if index >= records.len() {
            return Err(format!(
                "chaos: plan names record {index} but {} has only {} records",
                path.display(),
                records.len()
            ));
        }
    }

    let cut = plan
        .faults
        .iter()
        .filter(|(_, f)| matches!(f, DiskFault::TornCache | DiskFault::Trunc))
        .map(|&(at, _)| at)
        .min();
    let mut applied = Vec::new();
    let mut out: Vec<u8> = Vec::with_capacity(bytes.len());
    for (index, record) in records.iter().enumerate() {
        if let Some(cut_at) = cut {
            if index > cut_at {
                break;
            }
            if index == cut_at {
                match plan.fault_at(index) {
                    Some(DiskFault::TornCache) => {
                        // Half the record's bytes, newline gone: the
                        // shape a crash mid-append leaves behind.
                        let keep = (record.len() / 2).max(1).min(record.len() - 1);
                        out.extend_from_slice(&record[..keep]);
                        applied.push(format!(
                            "torn-cache@{index}: kept {keep} of {} bytes, no newline",
                            record.len()
                        ));
                    }
                    Some(DiskFault::Trunc) => {
                        applied.push(format!(
                            "trunc@{index}: dropped record {index} and {} after it",
                            records.len() - index - 1
                        ));
                    }
                    _ => unreachable!("cut index always carries a cutting fault"),
                }
                break;
            }
        }
        match plan.fault_at(index) {
            Some(DiskFault::Flip { byte }) => {
                let mut flipped = record.clone();
                // Never flip the terminating newline: merging two
                // records is the torn case, not the bit-rot case.
                let content_len = flipped.len().saturating_sub(1).max(1);
                let at = byte.min(content_len - 1);
                flipped[at] ^= 0xFF;
                applied.push(format!("flip@{index}:{at}: inverted one byte"));
                out.extend_from_slice(&flipped);
            }
            _ => out.extend_from_slice(record),
        }
    }
    std::fs::write(path, &out).map_err(|e| format!("chaos: write {}: {e}", path.display()))?;
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal line-echo upstream standing in for a shard: answers
    /// every request line with `{"status": "ok", "echo": <line>}`.
    fn echo_upstream() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            while start.elapsed() < Duration::from_secs(20) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        std::thread::spawn(move || {
                            let mut reader = BufReader::new(stream.try_clone().unwrap());
                            let mut writer = stream;
                            let mut line = String::new();
                            loop {
                                line.clear();
                                match reader.read_line(&mut line) {
                                    Ok(0) | Err(_) => return,
                                    Ok(_) => {}
                                }
                                let reply = format!(
                                    "{{\"status\": \"ok\", \"echo\": \"{}\"}}\n",
                                    line.trim_end().replace('"', "'")
                                );
                                if writer
                                    .write_all(reply.as_bytes())
                                    .and_then(|()| writer.flush())
                                    .is_err()
                                {
                                    return;
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => return,
                }
            }
        });
        (addr, handle)
    }

    fn send_work(addr: SocketAddr, id: usize) -> std::io::Result<String> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        writer.write_all(format!("{{\"kind\": \"check\", \"id\": {id}}}\n").as_bytes())?;
        writer.flush()?;
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "closed",
            ));
        }
        Ok(line)
    }

    #[test]
    fn parses_the_chaos_dsl() {
        let plan = parse_chaos_plan("kill@4:300,stall@2:50,drop@7,torn@9,kill@12").unwrap();
        assert_eq!(
            plan.fault_at(4),
            Some(Fault::Kill {
                revive_ms: Some(300)
            })
        );
        assert_eq!(plan.fault_at(2), Some(Fault::Stall { ms: 50 }));
        assert_eq!(plan.fault_at(7), Some(Fault::Drop));
        assert_eq!(plan.fault_at(9), Some(Fault::Torn));
        assert_eq!(plan.fault_at(12), Some(Fault::Kill { revive_ms: None }));
        assert_eq!(plan.fault_at(0), None);
        assert!(parse_chaos_plan("").unwrap().is_empty());

        for bad in [
            "kill",
            "kill@x",
            "stall@3",
            "stall@3:x",
            "drop@1:5",
            "torn@1:5",
            "nuke@3",
            "kill@1,kill@1",
        ] {
            assert!(parse_chaos_plan(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn clean_plan_forwards_and_health_does_not_advance_the_clock() {
        let (upstream, _handle) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, ChaosPlan::default()).unwrap();
        let addr = proxy.local_addr();
        // A health probe passes through without moving the work clock.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(b"{\"kind\": \"health\"}\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("'kind': 'health'"), "{line}");
        assert_eq!(proxy.work_requests_seen(), 0);

        let reply = send_work(addr, 1).unwrap();
        assert!(reply.contains("'id': 1"), "{reply}");
        assert_eq!(proxy.work_requests_seen(), 1);
        assert!(proxy.forwarded() >= 2);
        proxy.stop();
    }

    #[test]
    fn torn_and_drop_faults_cut_the_frame() {
        let (upstream, _handle) = echo_upstream();
        let proxy =
            ChaosProxy::start(upstream, parse_chaos_plan("torn@0,drop@1").unwrap()).unwrap();
        let addr = proxy.local_addr();

        // torn@0: some response bytes arrive but the line never
        // terminates — read_line hits EOF with a partial buffer.
        let stream = TcpStream::connect(addr).unwrap();
        let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"{\"kind\": \"check\", \"id\": 0}\n")
            .unwrap();
        writer.flush().unwrap();
        let mut buf = String::new();
        let n = reader.read_line(&mut buf).unwrap();
        assert!(n > 0, "torn frame still delivers partial bytes");
        assert!(
            !buf.ends_with('\n'),
            "torn frame must not terminate: {buf:?}"
        );

        // drop@1: the connection dies with no response bytes at all.
        let err = send_work(addr, 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
        proxy.stop();
    }

    #[test]
    fn kill_refuses_until_revival_then_serves_again() {
        let (upstream, _handle) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, parse_chaos_plan("kill@0:250").unwrap()).unwrap();
        let addr = proxy.local_addr();

        // The killing request gets no answer.
        assert!(send_work(addr, 0).is_err());
        // While dead, new connections are cut before any byte flows.
        assert!(send_work(addr, 1).is_err());
        // After the revive window the "shard" serves again.
        std::thread::sleep(Duration::from_millis(400));
        let reply = send_work(addr, 2).unwrap();
        assert!(reply.contains("\"status\": \"ok\""), "{reply}");
        proxy.stop();
    }

    #[test]
    fn parses_the_disk_fault_dsl() {
        let plan = parse_disk_plan("torn-cache@5,flip@2:17,trunc@9").unwrap();
        assert_eq!(plan.fault_at(5), Some(DiskFault::TornCache));
        assert_eq!(plan.fault_at(2), Some(DiskFault::Flip { byte: 17 }));
        assert_eq!(plan.fault_at(9), Some(DiskFault::Trunc));
        assert_eq!(plan.fault_at(0), None);
        assert_eq!(plan.faults().len(), 3);
        assert!(parse_disk_plan("").unwrap().is_empty());

        for bad in [
            "torn-cache",
            "torn-cache@x",
            "torn-cache@1:5",
            "flip@3",
            "flip@3:x",
            "trunc@1:5",
            "melt@3",
            "flip@1:0,flip@1:2",
        ] {
            assert!(parse_disk_plan(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn disk_plan_mutates_the_file_as_scheduled() {
        let dir = std::env::temp_dir().join(format!("lkc-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("summaries.lkc");
        let lines = ["HEADER 1\n", "R 1 aa 2 k1 p1\n", "R 1 bb 2 k2 p2\n"];
        let write_fresh = || std::fs::write(&path, lines.concat()).unwrap();

        // flip inverts exactly one byte and leaves the record count alone.
        write_fresh();
        let applied = apply_disk_plan(&path, &parse_disk_plan("flip@1:3").unwrap()).unwrap();
        assert_eq!(applied.len(), 1, "{applied:?}");
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes.len(), lines.concat().len());
        let diff: Vec<usize> = bytes
            .iter()
            .zip(lines.concat().as_bytes())
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diff.len(), 1, "exactly one byte inverted");

        // torn-cache cuts mid-record with no trailing newline.
        write_fresh();
        apply_disk_plan(&path, &parse_disk_plan("torn-cache@2").unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.starts_with("HEADER 1\nR 1 aa 2 k1 p1\nR 1 bb"),
            "{text:?}"
        );
        assert!(!text.ends_with('\n'), "torn tail must not terminate");

        // trunc drops the record and everything after it.
        write_fresh();
        apply_disk_plan(&path, &parse_disk_plan("trunc@1").unwrap()).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "HEADER 1\n");

        // The smallest cutting index wins; flips before it still land.
        write_fresh();
        let applied = apply_disk_plan(
            &path,
            &parse_disk_plan("flip@0:2,trunc@2,torn-cache@1").unwrap(),
        )
        .unwrap();
        assert_eq!(applied.len(), 2, "{applied:?}");
        let text = String::from_utf8_lossy(&std::fs::read(&path).unwrap()).into_owned();
        assert!(!text.contains("k2"), "records past the cut are gone");

        // Out-of-range records are a stale plan, not a no-op.
        write_fresh();
        let err = apply_disk_plan(&path, &parse_disk_plan("trunc@7").unwrap()).unwrap_err();
        assert!(err.contains("record 7"), "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stall_delays_but_preserves_the_response() {
        let (upstream, _handle) = echo_upstream();
        let proxy = ChaosProxy::start(upstream, parse_chaos_plan("stall@0:150").unwrap()).unwrap();
        let begin = Instant::now();
        let reply = send_work(proxy.local_addr(), 0).unwrap();
        assert!(begin.elapsed() >= Duration::from_millis(140));
        assert!(reply.contains("\"status\": \"ok\""), "{reply}");
        proxy.stop();
    }
}
