//! Library backend of the `leakc` command-line tool.
//!
//! The binary is a thin wrapper: argument parsing and command dispatch
//! live here so they can be unit-tested without spawning processes.

pub mod protocol;
pub mod router;
pub mod serve;

pub use router::{run_route, RouteOptions, Router};
pub use serve::{install_signal_handlers, run_serve, ServeOptions, Server};

use leakchecker::governor::{parse_fault_plan, FaultPlan, GovernorConfig};
use leakchecker::{
    cacheable_config, check, render_all, write_atomic, CachedTarget, CheckTarget, DetectorConfig,
    SummaryCache, TargetKeys,
};
use leakchecker_callgraph::Algorithm;
use leakchecker_dynbaseline::{detect as dyn_detect, heap_growth_curve, DynConfig};
use leakchecker_frontend::CompiledUnit;
use leakchecker_interp::{run as interp_run, Config as InterpConfig, NonDetPolicy};
use leakchecker_ir::ids::LoopId;
use leakchecker_ir::loops::all_loops;
use leakchecker_ir::pretty::print_program;
use std::fmt;
use std::fmt::Write as _;

/// Exit code: nothing to report.
pub const EXIT_CLEAN: i32 = 0;
/// Exit code: leaks were reported (or soundness violations found).
pub const EXIT_LEAKS: i32 = 1;
/// Exit code: usage or input error (bad flags, unreadable file,
/// compile failure, unresolvable target).
pub const EXIT_USAGE: i32 = 2;
/// Exit code: the run completed but degraded — budget/deadline
/// fallbacks or quarantined items occurred and nothing (else) was
/// found, so a clean answer cannot be claimed at full precision.
pub const EXIT_DEGRADED: i32 = 3;
/// Exit code: internal failure (unexpected panic).
pub const EXIT_INTERNAL: i32 = 4;

/// A typed pipeline error, carrying the exit code it maps to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LeakcError {
    /// Malformed invocation (bad flags or arguments).
    Usage(String),
    /// Bad input: unreadable file, compile error, unresolvable target.
    Input(String),
    /// An invariant the pipeline relies on failed.
    Internal(String),
}

impl LeakcError {
    /// The process exit code for this error.
    pub fn exit_code(&self) -> i32 {
        match self {
            LeakcError::Usage(_) | LeakcError::Input(_) => EXIT_USAGE,
            LeakcError::Internal(_) => EXIT_INTERNAL,
        }
    }
}

impl fmt::Display for LeakcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeakcError::Usage(m) | LeakcError::Input(m) | LeakcError::Internal(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for LeakcError {}

/// A command's result: the text to print and the exit code implied by
/// what the run found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliOutput {
    /// Text for stdout.
    pub text: String,
    /// Process exit code per the documented contract.
    pub exit_code: i32,
}

impl CliOutput {
    fn clean(text: String) -> CliOutput {
        CliOutput {
            text,
            exit_code: EXIT_CLEAN,
        }
    }
}

/// A parsed command line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `leakc check <file> [options]`
    Check {
        /// Source file path.
        file: String,
        /// Explicit loop index (into the program loop table); `None`
        /// uses the `@check` / `@region` annotations or `--auto`.
        loop_index: Option<usize>,
        /// `--auto`: pick the highest-scoring candidate loop.
        auto: bool,
        /// Detector options.
        options: CheckOptions,
        /// `--json PATH` — write a machine-readable summary here
        /// (atomic temp-file + rename).
        json: Option<String>,
        /// `--trace PATH` — stream per-query derivation traces as JSONL
        /// (atomic temp-file + rename). Implies witness recording.
        trace: Option<String>,
        /// `--cache DIR` — durable summary cache: replay byte-identical
        /// results for unchanged (modulo analysis-invisible edits)
        /// programs, record cold ones.
        cache: Option<String>,
    },
    /// `leakc run <file> [--iterations N]` — execute and apply the
    /// dynamic baseline.
    Run {
        /// Source file path.
        file: String,
        /// Iteration budget for the tracked loop.
        iterations: u64,
    },
    /// `leakc print <file>` — pretty-print the compiled IR.
    Print {
        /// Source file path.
        file: String,
    },
    /// `leakc loops <file>` — rank candidate loops.
    Loops {
        /// Source file path.
        file: String,
    },
    /// `leakc fuzz [options]` — differential fuzzing campaign: the
    /// static detector versus interpreter-derived ground truth.
    Fuzz {
        /// Campaign options.
        options: FuzzOptions,
    },
    /// `leakc serve [options]` — long-running analysis daemon.
    Serve {
        /// Daemon options.
        options: ServeOptions,
    },
    /// `leakc route [options]` — fleet coordinator in front of
    /// replicated `serve` shards.
    Route {
        /// Router options.
        options: RouteOptions,
    },
    /// `leakc --help`, `leakc help [<command>]`, or `<command> --help`.
    Help {
        /// Subcommand to document; `None` prints the global usage.
        topic: Option<String>,
    },
}

/// Flags of the `fuzz` subcommand.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzOptions {
    /// `--seeds N` — number of programs.
    pub seeds: u64,
    /// `--seed S` — base seed (program `i` uses `S + i`).
    pub seed: u64,
    /// `--jobs N` — worker threads (0 = machine width).
    pub jobs: usize,
    /// `--iterations N` — tracked-loop iterations per handler.
    pub iterations: u64,
    /// `--json PATH` — write the campaign summary JSON here.
    pub json: Option<String>,
    /// `--corpus-dir DIR` — write minimized reproducers of any
    /// soundness violation into this directory.
    pub corpus_dir: Option<String>,
    /// `--write-exemplars` — (re)generate the per-kind exemplar corpus
    /// entries in `--corpus-dir` and exit.
    pub write_exemplars: bool,
    /// `--inject SPEC` — campaign-level fault injection, keyed by seed
    /// offset (`exhaust@N,panic@M,deadline@D`).
    pub inject: FaultPlan,
    /// `--journal PATH` — checkpoint each seed's verdict to an
    /// append-only, fsync'd journal as the campaign runs.
    pub journal: Option<String>,
    /// `--resume PATH` — reload a journal from an interrupted campaign,
    /// skip its completed seeds, and keep appending to it.
    pub resume: Option<String>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        let defaults = leakchecker_fuzz::FuzzConfig::default();
        FuzzOptions {
            seeds: defaults.seeds,
            seed: defaults.base_seed,
            jobs: defaults.jobs,
            iterations: defaults.iterations_per_handler,
            json: None,
            corpus_dir: None,
            write_exemplars: false,
            inject: FaultPlan::none(),
            journal: None,
            resume: None,
        }
    }
}

/// Detector-affecting flags.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct CheckOptions {
    /// `--no-pivot`.
    pub pivot: bool,
    /// `--threads`.
    pub threads: bool,
    /// `--no-library-modeling`.
    pub library_modeling: bool,
    /// `--k <n>`.
    pub k: usize,
    /// `--cha` (default RTA).
    pub cha: bool,
    /// `--jobs <n>` worker threads (0 = machine width, 1 = sequential).
    pub jobs: usize,
    /// `--deadline-ms <n>` wall-clock deadline for the run.
    pub deadline_ms: Option<u64>,
    /// `--query-budget <n>` per-query step budget.
    pub query_budget: usize,
    /// `--max-retries <n>` adaptive retries after exhaustion.
    pub max_retries: u32,
    /// `--inject SPEC` deterministic fault injection (tests/CI).
    pub inject: FaultPlan,
    /// `--explain` render escape-chain witnesses under each report.
    pub explain: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        let governor = GovernorConfig::default();
        CheckOptions {
            pivot: true,
            threads: false,
            library_modeling: true,
            k: 8,
            cha: false,
            jobs: 1,
            deadline_ms: None,
            query_budget: governor.query_budget,
            max_retries: governor.max_retries,
            inject: FaultPlan::none(),
            explain: false,
        }
    }
}

impl CheckOptions {
    /// Converts the flags to a detector configuration.
    pub fn to_config(self) -> DetectorConfig {
        let mut config = DetectorConfig {
            pivot_mode: self.pivot,
            model_threads: self.threads,
            library_modeling: self.library_modeling,
            callgraph: if self.cha {
                Algorithm::Cha
            } else {
                Algorithm::Rta
            },
            jobs: self.jobs,
            governor: GovernorConfig {
                query_budget: self.query_budget,
                max_retries: self.max_retries,
                deadline_ms: self.deadline_ms,
                faults: self.inject,
            },
            witnesses: self.explain,
            ..DetectorConfig::default()
        };
        config.contexts.k = self.k;
        config
    }
}

/// The exit-code contract, appended to every usage text.
const EXIT_CODE_CONTRACT: &str = "\
EXIT CODES:
  0  clean — no leaks reported, full precision
  1  leaks reported (fuzz: soundness violations found)
  2  usage or input error (unknown flags print this usage to stderr)
  3  degraded-incomplete — no leaks found, but budget/deadline fallbacks
     or quarantined items mean a fully precise run might have found some
  4  internal error (unexpected panic)
";

/// Usage text.
pub const USAGE: &str = "\
leakc — loop-centric static memory leak detection (CGO 2014 reproduction)

USAGE:
  leakc check <file.jml> [--loop N | --auto] [--no-pivot] [--threads]
                         [--no-library-modeling] [--k N] [--cha] [--jobs N]
                         [--deadline-ms N] [--query-budget N] [--max-retries N]
                         [--inject SPEC] [--json PATH] [--explain]
                         [--trace PATH] [--cache DIR]
  leakc run   <file.jml> [--iterations N]
  leakc print <file.jml>
  leakc loops <file.jml>
  leakc fuzz  [--seeds N] [--seed S] [--jobs N] [--iterations N]
              [--json PATH] [--corpus-dir DIR] [--write-exemplars]
              [--inject SPEC] [--journal PATH | --resume PATH]
  leakc serve [--addr HOST:PORT] [--socket PATH] [--queue N] [--workers N]
              [--shard NAME] [--epoch N] [--deadline-ms N] [--cache DIR]
              [--metrics-addr HOST:PORT] [--no-coalesce]
  leakc route --shard HOST:PORT [--shard HOST:PORT ...] [--addr HOST:PORT]
              [--retries N] [--backoff-ms N] [--hedge-ms N] [--deadline-ms N]
              [--breaker-failures N] [--breaker-cooldown-ms N]
              [--metrics-addr HOST:PORT]
  leakc help  [check|run|print|loops|fuzz|serve|route]

`leakc help <command>` (or `leakc <command> --help`) documents every
flag of one subcommand.

The source language is Java-like; annotate the loop to analyze with
`@check while (...) { ... }`, a checkable region method with `@region`,
or pass --auto to rank candidate loops structurally.

Resource governance: demand queries run under --query-budget steps with
--max-retries adaptive retries (8x budget each); on final exhaustion or
--deadline-ms expiry the run degrades soundly to the context-insensitive
over-approximation, tagging affected reports `(degraded: <cause>)`.
--inject forces failures deterministically for testing, keyed by
work-item index: `exhaust@N,panic@M,deadline@D` (check: candidate index;
fuzz: seed offset; deadline applies to every index >= D).

`fuzz` runs a differential campaign: each seed generates a dispatcher
program from the mutation grammar, the concrete interpreter derives
per-site must-leak facts, and any dynamically confirmed leak the static
detector misses is a soundness violation — minimized and written to
--corpus-dir. A failing seed reproduces with `--seed S --seeds 1`.

`serve` runs the detector as a long-lived daemon over a line-delimited
JSON protocol with bounded admission (overflow requests are shed with a
typed `overloaded` response) and graceful drain on SIGTERM/ctrl-c.

`route` presents the same protocol in front of N replicated `serve`
shards: consistent-hash placement, per-shard circuit breakers driven by
health probes, bounded retry with backoff against surviving replicas,
optional latency hedging, and end-to-end deadline propagation.

EXIT CODES:
  0  clean — no leaks reported, full precision
  1  leaks reported (fuzz: soundness violations found)
  2  usage or input error (unknown flags print this usage to stderr)
  3  degraded-incomplete — no leaks found, but budget/deadline fallbacks
     or quarantined items mean a fully precise run might have found some
  4  internal error (unexpected panic)
";

const CHECK_USAGE: &str = "\
leakc check — statically analyze a program for loop-clustered leaks

USAGE:
  leakc check <file.jml> [flags]

TARGET SELECTION (default: every `@check` loop and `@region` method):
  --loop N               analyze loop N of the program loop table
  --auto                 analyze the highest-scoring candidate loop

DETECTOR FLAGS:
  --no-pivot             disable pivot-mode context pruning
  --threads              model `Thread.start` edges in the callgraph
  --no-library-modeling  treat library calls as opaque
  --k N                  context-string depth bound (default 8)
  --cha                  class-hierarchy callgraph (default RTA)
  --jobs N               analysis worker threads (0 = machine width)

GOVERNANCE FLAGS:
  --query-budget N       per-demand-query step budget (default 100000)
  --max-retries N        adaptive retries after exhaustion (default 1)
  --deadline-ms N        wall-clock deadline for the whole run
  --inject SPEC          deterministic fault injection, keyed by
                         candidate index: exhaust@N,panic@M,deadline@D

OUTPUT FLAGS:
  --json PATH            also write a machine-readable summary, via an
                         atomic temp-file + rename (never torn)
  --explain              render each report's escape chain: the numbered,
                         source-anchored store path through which the
                         site's objects reach the outside object, plus
                         the flows-in frontier searched and found empty
  --trace PATH           stream per-query derivation traces as JSONL
                         (one event per refinement query: phase, ticket
                         spend, outcome, provenance edge list), via an
                         atomic temp-file + rename
  --cache DIR            durable summary cache: re-checks of a program
                         whose analysis-visible content is unchanged
                         replay the recorded result byte-identically
                         instead of re-analyzing; corrupt cache records
                         degrade to misses, never to wrong answers.
                         Ignored (cold run) under --explain/--trace,
                         --inject, or --deadline-ms

Witness output (--explain/--trace) derives from the deterministic
closure order and is byte-identical at any --jobs; recording is off
unless requested and costs nothing when disabled.

On budget/deadline exhaustion the run degrades soundly to the
context-insensitive over-approximation; affected reports are tagged
`(degraded: <cause>)` and a finding-free degraded run exits 3 —
witnesses then carry whatever partial derivation was recovered.

";

const RUN_USAGE: &str = "\
leakc run — execute a program and apply the dynamic staleness baseline

USAGE:
  leakc run <file.jml> [--iterations N]

FLAGS:
  --iterations N         tracked-loop iteration budget (default 100)

";

const PRINT_USAGE: &str = "\
leakc print — pretty-print the compiled IR

USAGE:
  leakc print <file.jml>

";

const LOOPS_USAGE: &str = "\
leakc loops — rank candidate loops structurally

USAGE:
  leakc loops <file.jml>

";

const FUZZ_USAGE: &str = "\
leakc fuzz — differential campaign against interpreter ground truth

USAGE:
  leakc fuzz [flags]

CAMPAIGN FLAGS:
  --seeds N              programs to generate and judge (default 200)
  --seed S               base seed; program i uses S + i
  --jobs N               worker threads (0 = machine width); the
                         campaign JSON is byte-identical at any value
  --iterations N         tracked-loop iterations per handler (default 8)
  --inject SPEC          campaign fault injection keyed by seed offset:
                         exhaust@N,panic@M,deadline@D

CHECKPOINTING FLAGS (mutually exclusive):
  --journal PATH         append each seed's verdict to an fsync'd
                         journal as it completes (crash-safe)
  --resume PATH          reload a journal from an interrupted campaign,
                         skip its completed seeds, keep appending; the
                         final JSON is byte-identical to an
                         uninterrupted run

OUTPUT FLAGS:
  --json PATH            write the campaign summary JSON, via an atomic
                         temp-file + rename (never torn)
  --corpus-dir DIR       write minimized reproducers of any soundness
                         violation here
  --write-exemplars      (re)generate the per-kind exemplar corpus in
                         --corpus-dir and exit

A failing seed reproduces with `--seed S --seeds 1`.

";

const SERVE_USAGE: &str = "\
leakc serve — long-running analysis daemon (line-delimited JSON)

USAGE:
  leakc serve [flags]

FLAGS:
  --addr HOST:PORT       TCP endpoint (default 127.0.0.1:0; the bound
                         address is printed on startup)
  --socket PATH          additionally listen on a unix domain socket
  --queue N              admission-queue bound (default 64); requests
                         beyond it are shed with a typed `overloaded`
                         response, never accepted and starved
  --workers N            analysis worker threads (default 1; 0 =
                         machine width)
  --cache DIR            durable summary cache shared by all workers:
                         checks whose analysis-visible content is
                         unchanged replay the recorded result, and the
                         `delta` verb re-checks edits warm; corrupt
                         records degrade to misses, never to wrong
                         answers
  --metrics-addr HOST:PORT  additionally serve the Prometheus text
                         exposition raw over plain `GET /metrics` on
                         this address (the bound address is printed)
  --no-coalesce          disable in-flight coalescing of identical
                         check requests (on by default; twins of a
                         queued or running check attach to the same
                         computation and get byte-identical responses)

FLEET FLAGS (for running behind `leakc route`):
  --shard NAME           this daemon's fleet identity, echoed in
                         `health`/`stats` frames (never in check
                         responses, which stay replica-independent)
  --epoch N              incarnation counter; restart a shard with a
                         higher epoch so routers see it as the same
                         slot under a fresh process
  --deadline-ms N        operator ceiling on per-request analysis time;
                         combined with any request-carried deadline_ms
                         by taking the minimum

PROTOCOL (one JSON object per line, one response line per request):
  {\"kind\": \"check\", \"id\": .., \"source\": \"..\",
   \"query_budget\": N, \"max_retries\": N, \"deadline_ms\": N,
   \"inject\": \"SPEC\"}        analyze inline source
  {\"kind\": \"delta\", \"id\": .., \"source\": \"..\",
   \"changed\": [\"M.f\", ..]}   incremental re-check against --cache:
                             invalidate transitively, replay warm;
                             response adds warm/invalidated/changed
  {\"kind\": \"health\"}         liveness: state, queue depth, uptime
  {\"kind\": \"stats\"}          counters and per-phase timings
  {\"kind\": \"metrics\"}        Prometheus text exposition (JSON-escaped
                             in the `metrics` field), answered inline
                             even under full load or while draining
  {\"kind\": \"shutdown\"}       request a graceful drain
  {\"kind\": \"panic\"}          fault drill: worker panics, daemon
                             answers `internal` and stays up

A panicking or deadline-blown request degrades or is quarantined
without taking down the daemon. SIGTERM/ctrl-c (or `shutdown`) stops
accepting, finishes in-flight work, flushes stats, and exits 0. A
`shutdown` request flips the `health` state to `draining` immediately,
so routers and load balancers divert traffic before it can be refused.

";

const ROUTE_USAGE: &str = "\
leakc route — fault-tolerant coordinator for a fleet of serve shards

USAGE:
  leakc route --shard HOST:PORT [--shard HOST:PORT ...] [flags]

FLEET FLAGS:
  --shard HOST:PORT      a backend `leakc serve` shard (repeatable;
                         at least one required)
  --addr HOST:PORT       the router's own endpoint (default
                         127.0.0.1:0; the bound address is printed)
  --vnodes N             virtual nodes per shard on the consistent-hash
                         ring (default 64)

RETRY FLAGS:
  --retries N            extra attempts after the first (default 4)
  --backoff-ms N         base backoff; attempt k waits backoff * 2^k
                         plus deterministic jitter (default 20)
  --hedge-ms N           launch a hedged attempt on the next replica if
                         the primary has not answered within N ms
                         (off by default)
  --deadline-ms N        default end-to-end budget for requests without
                         their own deadline_ms; the frame forwarded to
                         each shard carries the *remaining* budget
  --attempt-timeout-ms N per-attempt connect+read cap (default 10000)

BREAKER FLAGS:
  --breaker-failures N   consecutive transport failures that open a
                         shard's circuit breaker (default 3)
  --breaker-cooldown-ms N  open-state cooldown before the single
                         half-open probe (default 250)
  --probe-interval-ms N  background health-probe period (default 50)

OBSERVABILITY FLAGS:
  --metrics-addr HOST:PORT  additionally serve the aggregated fleet
                         exposition raw over plain `GET /metrics`
                         (also available as the `metrics` protocol
                         verb on the main endpoint)

Checks are placed on the ring by their source text, so the same
program+loop always lands on the same primary shard; replicas further
along the ring are failover targets. Check analysis is deterministic
and responses carry no shard identity, so any replica computes
byte-identical answers — that is what makes retry and hedging safe.
Typed refusals (`overloaded`, `draining`) and transport failures
(refused, reset, timeout, torn frame) are retried; terminal answers
are forwarded verbatim; exhaustion yields a typed `unavailable`
response, never a hang or a dropped request. The router's own `health`
and `stats` verbs report fleet state, routing counters, and each
shard's breaker walk.

";

/// Usage text for one subcommand (or the global text for `None` /
/// unknown topics).
pub fn usage_for(topic: Option<&str>) -> String {
    let body = match topic {
        Some("check") => CHECK_USAGE,
        Some("run") => RUN_USAGE,
        Some("print") => PRINT_USAGE,
        Some("loops") => LOOPS_USAGE,
        Some("fuzz") => FUZZ_USAGE,
        Some("serve") => SERVE_USAGE,
        Some("route") => ROUTE_USAGE,
        _ => return USAGE.to_string(),
    };
    format!("{body}{EXIT_CODE_CONTRACT}")
}

/// Parses a command line (excluding argv[0]).
///
/// # Errors
///
/// Returns a human-readable message for malformed invocations.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help { topic: None });
    };
    let help = |topic: &str| {
        Ok(Command::Help {
            topic: Some(topic.to_string()),
        })
    };
    match cmd.as_str() {
        "--help" | "-h" => Ok(Command::Help { topic: None }),
        "help" => Ok(Command::Help {
            topic: it.next().cloned(),
        }),
        "check" => {
            let file = it
                .next()
                .ok_or_else(|| "check: missing <file>".to_string())?
                .clone();
            if file == "--help" || file == "-h" {
                return help("check");
            }
            let mut loop_index = None;
            let mut auto = false;
            let mut json = None;
            let mut trace = None;
            let mut cache = None;
            let mut options = CheckOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--loop" => {
                        let n = it.next().ok_or("--loop needs a number")?;
                        loop_index = Some(n.parse::<usize>().map_err(|_| "--loop needs a number")?);
                    }
                    "--auto" => auto = true,
                    "--no-pivot" => options.pivot = false,
                    "--threads" => options.threads = true,
                    "--no-library-modeling" => options.library_modeling = false,
                    "--cha" => options.cha = true,
                    "--k" => {
                        let n = it.next().ok_or("--k needs a number")?;
                        options.k = n.parse::<usize>().map_err(|_| "--k needs a number")?;
                    }
                    "--jobs" => {
                        let n = it.next().ok_or("--jobs needs a number")?;
                        options.jobs = n.parse::<usize>().map_err(|_| "--jobs needs a number")?;
                    }
                    "--deadline-ms" => {
                        let n = it.next().ok_or("--deadline-ms needs a number")?;
                        options.deadline_ms = Some(
                            n.parse::<u64>()
                                .map_err(|_| "--deadline-ms needs a number")?,
                        );
                    }
                    "--query-budget" => {
                        let n = it.next().ok_or("--query-budget needs a number")?;
                        options.query_budget = n
                            .parse::<usize>()
                            .map_err(|_| "--query-budget needs a number")?;
                    }
                    "--max-retries" => {
                        let n = it.next().ok_or("--max-retries needs a number")?;
                        options.max_retries = n
                            .parse::<u32>()
                            .map_err(|_| "--max-retries needs a number")?;
                    }
                    "--inject" => {
                        let spec = it.next().ok_or("--inject needs a spec")?;
                        options.inject = parse_fault_plan(spec)?;
                    }
                    "--json" => {
                        let p = it.next().ok_or("--json needs a path")?;
                        json = Some(p.clone());
                    }
                    "--explain" => options.explain = true,
                    "--trace" => {
                        let p = it.next().ok_or("--trace needs a path")?;
                        trace = Some(p.clone());
                    }
                    "--cache" => {
                        let p = it.next().ok_or("--cache needs a directory")?;
                        cache = Some(p.clone());
                    }
                    "--help" | "-h" => return help("check"),
                    other => return Err(format!("check: unknown flag `{other}`")),
                }
            }
            Ok(Command::Check {
                file,
                loop_index,
                auto,
                options,
                json,
                trace,
                cache,
            })
        }
        "run" => {
            let file = it
                .next()
                .ok_or_else(|| "run: missing <file>".to_string())?
                .clone();
            if file == "--help" || file == "-h" {
                return help("run");
            }
            let mut iterations = 100;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--iterations" => {
                        let n = it.next().ok_or("--iterations needs a number")?;
                        iterations = n
                            .parse::<u64>()
                            .map_err(|_| "--iterations needs a number")?;
                    }
                    "--help" | "-h" => return help("run"),
                    other => return Err(format!("run: unknown flag `{other}`")),
                }
            }
            Ok(Command::Run { file, iterations })
        }
        "print" => {
            let file = it
                .next()
                .ok_or_else(|| "print: missing <file>".to_string())?
                .clone();
            if file == "--help" || file == "-h" {
                return help("print");
            }
            Ok(Command::Print { file })
        }
        "loops" => {
            let file = it
                .next()
                .ok_or_else(|| "loops: missing <file>".to_string())?
                .clone();
            if file == "--help" || file == "-h" {
                return help("loops");
            }
            Ok(Command::Loops { file })
        }
        "serve" => {
            let mut options = ServeOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => {
                        let a = it.next().ok_or("--addr needs HOST:PORT")?;
                        options.addr = a.clone();
                    }
                    "--socket" => {
                        let p = it.next().ok_or("--socket needs a path")?;
                        options.socket = Some(p.clone());
                    }
                    "--queue" => {
                        let n = it.next().ok_or("--queue needs a number")?;
                        options.queue = n.parse::<usize>().map_err(|_| "--queue needs a number")?;
                        if options.queue == 0 {
                            return Err("--queue must be at least 1".to_string());
                        }
                    }
                    "--workers" => {
                        let n = it.next().ok_or("--workers needs a number")?;
                        options.workers =
                            n.parse::<usize>().map_err(|_| "--workers needs a number")?;
                    }
                    "--shard" => {
                        let name = it.next().ok_or("--shard needs a name")?;
                        options.shard = Some(name.clone());
                    }
                    "--epoch" => {
                        let n = it.next().ok_or("--epoch needs a number")?;
                        options.epoch = n.parse::<u64>().map_err(|_| "--epoch needs a number")?;
                    }
                    "--deadline-ms" => {
                        let n = it.next().ok_or("--deadline-ms needs a number")?;
                        options.deadline_ms = Some(
                            n.parse::<u64>()
                                .map_err(|_| "--deadline-ms needs a number")?,
                        );
                    }
                    "--cache" => {
                        let p = it.next().ok_or("--cache needs a directory")?;
                        options.cache = Some(p.clone());
                    }
                    "--metrics-addr" => {
                        let a = it.next().ok_or("--metrics-addr needs HOST:PORT")?;
                        options.metrics_addr = Some(a.clone());
                    }
                    "--no-coalesce" => {
                        options.coalesce = false;
                    }
                    "--help" | "-h" => return help("serve"),
                    other => return Err(format!("serve: unknown flag `{other}`")),
                }
            }
            Ok(Command::Serve { options })
        }
        "route" => {
            let mut options = RouteOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => {
                        let a = it.next().ok_or("--addr needs HOST:PORT")?;
                        options.addr = a.clone();
                    }
                    "--shard" => {
                        let a = it.next().ok_or("--shard needs HOST:PORT")?;
                        options.shards.push(a.clone());
                    }
                    "--retries" => {
                        let n = it.next().ok_or("--retries needs a number")?;
                        options.retries =
                            n.parse::<u32>().map_err(|_| "--retries needs a number")?;
                    }
                    "--backoff-ms" => {
                        let n = it.next().ok_or("--backoff-ms needs a number")?;
                        options.backoff_ms = n
                            .parse::<u64>()
                            .map_err(|_| "--backoff-ms needs a number")?;
                    }
                    "--hedge-ms" => {
                        let n = it.next().ok_or("--hedge-ms needs a number")?;
                        options.hedge_ms =
                            Some(n.parse::<u64>().map_err(|_| "--hedge-ms needs a number")?);
                    }
                    "--deadline-ms" => {
                        let n = it.next().ok_or("--deadline-ms needs a number")?;
                        options.deadline_ms = Some(
                            n.parse::<u64>()
                                .map_err(|_| "--deadline-ms needs a number")?,
                        );
                    }
                    "--attempt-timeout-ms" => {
                        let n = it.next().ok_or("--attempt-timeout-ms needs a number")?;
                        options.attempt_timeout_ms = n
                            .parse::<u64>()
                            .map_err(|_| "--attempt-timeout-ms needs a number")?;
                    }
                    "--breaker-failures" => {
                        let n = it.next().ok_or("--breaker-failures needs a number")?;
                        options.breaker_failures = n
                            .parse::<u32>()
                            .map_err(|_| "--breaker-failures needs a number")?;
                    }
                    "--breaker-cooldown-ms" => {
                        let n = it.next().ok_or("--breaker-cooldown-ms needs a number")?;
                        options.breaker_cooldown_ms = n
                            .parse::<u64>()
                            .map_err(|_| "--breaker-cooldown-ms needs a number")?;
                    }
                    "--probe-interval-ms" => {
                        let n = it.next().ok_or("--probe-interval-ms needs a number")?;
                        options.probe_interval_ms = n
                            .parse::<u64>()
                            .map_err(|_| "--probe-interval-ms needs a number")?;
                    }
                    "--vnodes" => {
                        let n = it.next().ok_or("--vnodes needs a number")?;
                        options.vnodes =
                            n.parse::<usize>().map_err(|_| "--vnodes needs a number")?;
                    }
                    "--metrics-addr" => {
                        let a = it.next().ok_or("--metrics-addr needs HOST:PORT")?;
                        options.metrics_addr = Some(a.clone());
                    }
                    "--help" | "-h" => return help("route"),
                    other => return Err(format!("route: unknown flag `{other}`")),
                }
            }
            if options.shards.is_empty() {
                return Err("route: at least one --shard HOST:PORT is required".to_string());
            }
            Ok(Command::Route { options })
        }
        "fuzz" => {
            let mut options = FuzzOptions::default();
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seeds" => {
                        let n = it.next().ok_or("--seeds needs a number")?;
                        options.seeds = n.parse::<u64>().map_err(|_| "--seeds needs a number")?;
                    }
                    "--seed" => {
                        let n = it.next().ok_or("--seed needs a number")?;
                        options.seed = n.parse::<u64>().map_err(|_| "--seed needs a number")?;
                    }
                    "--jobs" => {
                        let n = it.next().ok_or("--jobs needs a number")?;
                        options.jobs = n.parse::<usize>().map_err(|_| "--jobs needs a number")?;
                    }
                    "--iterations" => {
                        let n = it.next().ok_or("--iterations needs a number")?;
                        options.iterations = n
                            .parse::<u64>()
                            .map_err(|_| "--iterations needs a number")?;
                    }
                    "--json" => {
                        let p = it.next().ok_or("--json needs a path")?;
                        options.json = Some(p.clone());
                    }
                    "--corpus-dir" => {
                        let p = it.next().ok_or("--corpus-dir needs a path")?;
                        options.corpus_dir = Some(p.clone());
                    }
                    "--write-exemplars" => options.write_exemplars = true,
                    "--inject" => {
                        let spec = it.next().ok_or("--inject needs a spec")?;
                        options.inject = parse_fault_plan(spec)?;
                    }
                    "--journal" => {
                        let p = it.next().ok_or("--journal needs a path")?;
                        options.journal = Some(p.clone());
                    }
                    "--resume" => {
                        let p = it.next().ok_or("--resume needs a journal path")?;
                        options.resume = Some(p.clone());
                    }
                    "--help" | "-h" => return help("fuzz"),
                    other => return Err(format!("fuzz: unknown flag `{other}`")),
                }
            }
            if options.write_exemplars && options.corpus_dir.is_none() {
                return Err("--write-exemplars needs --corpus-dir".to_string());
            }
            if options.journal.is_some() && options.resume.is_some() {
                return Err(
                    "--journal and --resume are mutually exclusive (--resume appends to \
                     the journal it resumes from)"
                        .to_string(),
                );
            }
            Ok(Command::Fuzz { options })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// The deterministic per-target `--json` fragment (no timings): the
/// CLI summary embeds it and the cache persists it verbatim, so warm
/// replays — whether through `leakc check --cache` or the serve delta
/// verb — reproduce the cold bytes exactly.
pub fn json_fragment_of(target: CheckTarget, result: &leakchecker::AnalysisResult) -> String {
    let reports: Vec<String> = result
        .reports
        .iter()
        .map(|r| {
            format!(
                "{{\"site\": \"{}\", \"method\": \"{}\", \"era\": \"{}\", \
                 \"degraded\": {}}}",
                protocol::json_escape(&r.describe),
                protocol::json_escape(&r.method),
                protocol::json_escape(&r.era.to_string()),
                r.confidence.is_degraded()
            )
        })
        .collect();
    format!(
        "{{\"target\": \"{}\", \"methods\": {}, \"statements\": {}, \
         \"loop_objects\": {}, \"leaking_sites\": {}, \
         \"degraded_reports\": {}, \"effects_rounds\": {}, \
         \"effects_locals_copied\": {}, \"effects_truncated\": {}, \
         \"reports\": [{}]}}",
        protocol::json_escape(&format!("{target:?}")),
        result.stats.methods,
        result.stats.statements,
        result.stats.loop_objects,
        result.stats.leaking_sites,
        result.stats.degraded_reports,
        result.stats.effects_rounds,
        result.stats.effects_locals_copied,
        result.stats.effects_truncated,
        reports.join(", ")
    )
}

/// Packs a cold analysis result (plus its pre-rendered `--json`
/// fragment) into the payload a warm replay needs.
pub fn cached_target_of(result: &leakchecker::AnalysisResult, json: String) -> CachedTarget {
    let s = result.stats;
    CachedTarget {
        reports_n: result.reports.len() as u64,
        degraded: s.is_degraded(),
        report: render_all(&result.program, &result.reports),
        json,
        counters: [
            s.methods as u64,
            s.statements as u64,
            s.loop_objects as u64,
            s.leaking_sites as u64,
            s.flow_edges as u64,
            s.candidate_sites as u64,
            s.refuted_candidates as u64,
            s.exhausted_queries,
            s.retries,
            s.fallbacks,
            s.quarantined,
            s.deadline_hits,
            s.degraded_reports as u64,
            s.batched_queries as u64,
            s.query_batches as u64,
            s.effects_rounds as u64,
        ],
        effects_truncated: s.effects_truncated,
    }
}

/// Renders a warm (cache-replayed) target block: same deterministic
/// lines as a cold run — the governance line and the report text are
/// byte-identical — with `(cached)` in place of the wall-clock figures.
fn render_warm_target(out: &mut String, target: CheckTarget, hit: &CachedTarget) {
    let c = &hit.counters;
    let _ = writeln!(
        out,
        "target {:?}: {} methods, {} statements, LO = {}, LS = {} (cached)",
        target, c[0], c[1], c[2], c[3]
    );
    let _ = writeln!(
        out,
        "  governance: {} exhausted, {} retries, {} fallbacks, \
         {} quarantined, {} deadline hits, {} degraded reports, \
         effects truncated: {}",
        c[7],
        c[8],
        c[9],
        c[10],
        c[11],
        c[12],
        if hit.effects_truncated { "yes" } else { "no" }
    );
    out.push_str(&hit.report);
    out.push('\n');
}

fn compile_file(file: &str) -> Result<CompiledUnit, LeakcError> {
    compile_file_timed(file).map(|(unit, _)| unit)
}

/// [`compile_file`], also returning the compile time in seconds: lex,
/// parse and lower, without the file read.
fn compile_file_timed(file: &str) -> Result<(CompiledUnit, f64), LeakcError> {
    let source = std::fs::read_to_string(file)
        .map_err(|e| LeakcError::Input(format!("cannot read {file}: {e}")))?;
    let start = std::time::Instant::now();
    let unit = leakchecker_frontend::compile(&source)
        .map_err(|e| LeakcError::Input(format!("{file}: {e}")))?;
    Ok((unit, start.elapsed().as_secs_f64()))
}

/// Executes a command, returning the text to print and the exit code
/// (see the `EXIT_*` constants and the USAGE contract).
///
/// # Errors
///
/// Returns a typed [`LeakcError`] for I/O, compile, and analysis
/// failures.
pub fn execute(command: Command) -> Result<CliOutput, LeakcError> {
    match command {
        Command::Help { topic } => Ok(CliOutput::clean(usage_for(topic.as_deref()))),
        Command::Serve { options } => run_serve(&options),
        Command::Route { options } => run_route(&options),
        Command::Print { file } => {
            let unit = compile_file(&file)?;
            Ok(CliOutput::clean(print_program(&unit.program)))
        }
        Command::Loops { file } => {
            let unit = compile_file(&file)?;
            let ranked = all_loops(&unit.program);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<10} {:<28} {:>6} {:>7} {:>7} {:>7}",
                "loop", "method", "depth", "allocs", "calls", "score"
            );
            for stats in ranked {
                let _ = writeln!(
                    out,
                    "{:<10} {:<28} {:>6} {:>7} {:>7} {:>7}",
                    stats.id.to_string(),
                    unit.program.qualified_name(stats.method),
                    stats.depth,
                    stats.allocs_inside,
                    stats.calls_inside,
                    stats.score()
                );
            }
            if out.lines().count() == 1 {
                let _ = writeln!(out, "(no loops found)");
            }
            Ok(CliOutput::clean(out))
        }
        Command::Check {
            file,
            loop_index,
            auto,
            options,
            json,
            trace,
            cache,
        } => {
            let (unit, compile_secs) = compile_file_timed(&file)?;
            let targets: Vec<CheckTarget> = if let Some(idx) = loop_index {
                vec![CheckTarget::Loop(LoopId(idx as u32))]
            } else if auto {
                let ranked = all_loops(&unit.program);
                let best = ranked
                    .first()
                    .ok_or_else(|| LeakcError::Input("no loops to analyze".to_string()))?;
                vec![CheckTarget::Loop(best.id)]
            } else {
                let mut t: Vec<CheckTarget> = unit
                    .checked_loops
                    .iter()
                    .map(|&l| CheckTarget::Loop(l))
                    .collect();
                t.extend(unit.region_methods.iter().map(|&m| CheckTarget::Region(m)));
                if t.is_empty() {
                    return Err(LeakcError::Input(
                        "no @check loop or @region method; use --loop N or --auto".to_string(),
                    ));
                }
                t
            };
            let mut config = options.to_config();
            // --trace needs the recording layer even without --explain.
            config.witnesses |= trace.is_some();
            // The cache replays recorded output verbatim, so it only
            // engages for runs whose output is a pure function of the
            // content key: witness, fault-injected and deadline-governed
            // runs always go cold.
            let mut store = match cache.as_deref().filter(|_| cacheable_config(&config)) {
                Some(dir) => Some(
                    SummaryCache::open(std::path::Path::new(dir))
                        .map_err(|e| LeakcError::Input(format!("cannot open cache {dir}: {e}")))?,
                ),
                None => None,
            };
            let mut out = String::new();
            let mut leaks_found = false;
            let mut degraded = false;
            let mut json_targets: Vec<String> = Vec::new();
            let mut trace_lines: Vec<String> = Vec::new();
            for target in targets {
                let keyed = store.as_ref().map(|store| {
                    let resolved = leakchecker::target::resolve(&unit.program, target)
                        .map_err(|e| LeakcError::Input(e.to_string()))?;
                    let keys = TargetKeys::new(resolved, config.callgraph, |digest| {
                        store.remembered_root(digest)
                    });
                    Ok::<_, LeakcError>((keys.result_key(target, &config), keys))
                });
                let mut keyed = match keyed {
                    Some(r) => Some(r?),
                    None => None,
                };
                if let (Some(store), Some((key, _))) = (store.as_mut(), keyed.as_ref()) {
                    if let Some(hit) = store.lookup(*key) {
                        json_targets.push(hit.json.clone());
                        render_warm_target(&mut out, target, &hit);
                        leaks_found |= hit.reports_n > 0;
                        degraded |= hit.degraded;
                        continue;
                    }
                }
                let result = check(&unit.program, target, config)
                    .map_err(|e| LeakcError::Input(e.to_string()))?;
                if trace.is_some() {
                    trace_lines.extend(result.traces.iter().map(leakchecker::QueryTrace::to_json));
                }
                let fragment = json_fragment_of(target, &result);
                json_targets.push(fragment.clone());
                if let (Some(store), Some((key, keys))) = (store.as_mut(), keyed.as_mut()) {
                    // Degraded results depend on budget luck, not
                    // content — never persist them.
                    if !result.stats.is_degraded() {
                        let entry = cached_target_of(&result, fragment);
                        store.record_target(keys, *key, &entry).map_err(|e| {
                            LeakcError::Input(format!("cannot write cache record: {e}"))
                        })?;
                    }
                }
                let _ = writeln!(
                    out,
                    "target {:?}: {} methods, {} statements, LO = {}, LS = {} ({:.3}s)",
                    target,
                    result.stats.methods,
                    result.stats.statements,
                    result.stats.loop_objects,
                    result.stats.leaking_sites,
                    result.stats.time_secs
                );
                let p = result.stats.phases;
                let _ = writeln!(
                    out,
                    "  phases: callgraph {:.3}s, effects {:.3}s, flows {:.3}s, \
                     contexts {:.3}s, refine {:.3}s, matching {:.3}s, \
                     compile {:.3}s  \
                     ({} flow edges, {} candidates, {} refuted, {} jobs; \
                     effects: {} rounds, {} locals copied)",
                    p.callgraph_secs,
                    p.effects_secs,
                    p.flows_secs,
                    p.contexts_secs,
                    p.refine_secs,
                    p.matching_secs,
                    compile_secs,
                    result.stats.flow_edges,
                    result.stats.candidate_sites,
                    result.stats.refuted_candidates,
                    result.stats.jobs,
                    result.stats.effects_rounds,
                    result.stats.effects_locals_copied
                );
                let s = result.stats;
                let _ = writeln!(
                    out,
                    "  governance: {} exhausted, {} retries, {} fallbacks, \
                     {} quarantined, {} deadline hits, {} degraded reports, \
                     effects truncated: {}",
                    s.exhausted_queries,
                    s.retries,
                    s.fallbacks,
                    s.quarantined,
                    s.deadline_hits,
                    s.degraded_reports,
                    if s.effects_truncated { "yes" } else { "no" }
                );
                leaks_found |= !result.reports.is_empty();
                degraded |= s.is_degraded();
                if options.explain {
                    out.push_str(&leakchecker::report::render_all_explained(
                        &result.program,
                        &result.reports,
                    ));
                } else {
                    out.push_str(&render_all(&result.program, &result.reports));
                }
                out.push('\n');
            }
            // Leaks are definite even when degraded (degradation only
            // over-approximates); exit 3 is reserved for runs that
            // would otherwise claim a clean bill of health.
            let exit_code = if leaks_found {
                EXIT_LEAKS
            } else if degraded {
                EXIT_DEGRADED
            } else {
                EXIT_CLEAN
            };
            if let Some(path) = &json {
                // Deterministic machine summary (no timings) written via
                // temp-file + rename so readers never observe a torn file.
                let summary = format!(
                    "{{\"file\": \"{}\", \"exit_code\": {}, \"leaks\": {}, \"degraded\": {}, \
                     \"targets\": [{}]}}\n",
                    protocol::json_escape(&file),
                    exit_code,
                    leaks_found,
                    degraded,
                    json_targets.join(", ")
                );
                write_atomic(std::path::Path::new(path), summary.as_bytes())
                    .map_err(|e| LeakcError::Input(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "summary written to {path}");
            }
            if let Some(path) = &trace {
                let mut body = trace_lines.join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                write_atomic(std::path::Path::new(path), body.as_bytes())
                    .map_err(|e| LeakcError::Input(format!("cannot write {path}: {e}")))?;
                let _ = writeln!(out, "{} trace events written to {path}", trace_lines.len());
            }
            if let Some(store) = &store {
                let cs = store.stats;
                let _ = writeln!(
                    out,
                    "cache: {} hits, {} misses, {} invalidated, {} corrupt recovered",
                    cs.hits, cs.misses, cs.invalidated, cs.corrupt_recovered
                );
            } else if cache.is_some() {
                let _ = writeln!(out, "cache: disabled for this run (non-replayable flags)");
            }
            Ok(CliOutput {
                text: out,
                exit_code,
            })
        }
        Command::Run { file, iterations } => {
            let unit = compile_file(&file)?;
            let tracked = unit.checked_loops.first().copied();
            let exec = interp_run(
                &unit.program,
                InterpConfig {
                    tracked_loop: tracked,
                    nondet: NonDetPolicy::Always(true),
                    max_tracked_iterations: Some(iterations),
                    ..InterpConfig::default()
                },
            )
            .map_err(|e| LeakcError::Input(e.to_string()))?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "executed {} steps, {} tracked iterations, {} objects allocated",
                exec.steps,
                exec.iterations,
                exec.heap.len()
            );
            let curve = heap_growth_curve(&exec, 8);
            let _ = writeln!(out, "escaped-heap growth: {curve:?}");
            let report = dyn_detect(&unit.program, &exec, DynConfig::default());
            if report.findings.is_empty() {
                let _ = writeln!(out, "dynamic baseline: no findings at this input size");
            } else {
                for f in &report.findings {
                    let _ = writeln!(
                        out,
                        "dynamic baseline: {} — {} stale of {} instances{}",
                        unit.program.alloc(f.site).describe,
                        f.stale_instances,
                        f.total_instances,
                        if f.growing { " (growing)" } else { "" }
                    );
                }
            }
            Ok(CliOutput::clean(out))
        }
        Command::Fuzz { options } => execute_fuzz(&options),
    }
}

fn execute_fuzz(options: &FuzzOptions) -> Result<CliOutput, LeakcError> {
    use leakchecker_fuzz::{
        render_campaign_json, render_entry, run_campaign_resumable, write_exemplars, CorpusEntry,
        FuzzConfig, Journal,
    };

    if options.write_exemplars {
        let dir = options
            .corpus_dir
            .as_deref()
            .ok_or_else(|| LeakcError::Usage("--write-exemplars needs --corpus-dir".to_string()))?;
        let written = write_exemplars(std::path::Path::new(dir), options.iterations)
            .map_err(LeakcError::Input)?;
        let mut out = String::new();
        for path in &written {
            let _ = writeln!(out, "wrote {}", path.display());
        }
        let _ = writeln!(out, "{} exemplar corpus entries", written.len());
        return Ok(CliOutput::clean(out));
    }

    let config = FuzzConfig {
        seeds: options.seeds,
        base_seed: options.seed,
        jobs: options.jobs,
        iterations_per_handler: options.iterations,
        governor: GovernorConfig {
            faults: options.inject,
            ..GovernorConfig::default()
        },
    };
    let (journal, resumed) = match (&options.journal, &options.resume) {
        (Some(path), None) => {
            let j =
                Journal::create(std::path::Path::new(path), &config).map_err(LeakcError::Input)?;
            (Some(j), std::collections::BTreeMap::new())
        }
        (None, Some(path)) => {
            let (j, resumed) =
                Journal::resume(std::path::Path::new(path), &config).map_err(LeakcError::Input)?;
            (Some(j), resumed)
        }
        _ => (None, std::collections::BTreeMap::new()),
    };
    let resumed_count = resumed.len();
    let campaign = run_campaign_resumable(&config, journal.as_ref(), &resumed);

    let mut out = String::new();
    if let Some(path) = &options.resume {
        let _ = writeln!(
            out,
            "resumed from journal {path}: {resumed_count} of {} seeds checkpointed",
            options.seeds
        );
    } else if let Some(path) = &options.journal {
        let _ = writeln!(out, "journaling campaign to {path}");
    }
    let _ = writeln!(
        out,
        "fuzzed {} programs (base seed {}, {} statements explored)",
        campaign.programs, campaign.base_seed, campaign.statements
    );
    let _ = writeln!(
        out,
        "reports: {} static, {} dynamically confirmed must-leaks, {} unconfirmed",
        campaign.reports,
        campaign.must_leaks,
        campaign.fp_causes.values().sum::<u64>()
    );
    let _ = writeln!(
        out,
        "dynamic baseline: missed {} ground-truth leaks, {} extra findings",
        campaign.dynamic_missed, campaign.dynamic_extra
    );
    let _ = writeln!(
        out,
        "governance: {} degraded runs, {} degraded reports, {} quarantined seeds",
        campaign.degraded_runs,
        campaign.degraded_reports,
        campaign.quarantined_seeds.len()
    );
    for seed in &campaign.quarantined_seeds {
        let _ = writeln!(
            out,
            "  QUARANTINED seed={seed} (worker panicked; rerun with: leakc fuzz --seed {seed} --seeds 1)"
        );
    }
    if !campaign.fp_causes.is_empty() {
        let causes: Vec<String> = campaign
            .fp_causes
            .iter()
            .map(|(c, n)| format!("{c}: {n}"))
            .collect();
        let _ = writeln!(out, "fp causes: {}", causes.join(", "));
    }
    let _ = writeln!(
        out,
        "witness validation: {} hops replayed, {} mismatches",
        campaign.witness_checked,
        campaign.witness_mismatches.len()
    );
    for mismatch in &campaign.witness_mismatches {
        let _ = writeln!(out, "  WITNESS MISMATCH {mismatch}");
    }
    let _ = writeln!(out, "soundness violations: {}", campaign.violations.len());
    for violation in &campaign.violations {
        let v = &violation.verdict;
        let _ = writeln!(
            out,
            "  VIOLATION seed={} kinds=[{}] missed={:?} (reproduce: leakc fuzz --seed {} --seeds 1)",
            v.seed,
            v.kinds.join(","),
            v.missed,
            v.seed
        );
        if let Some(dir) = &options.corpus_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| LeakcError::Input(format!("cannot create {dir}: {e}")))?;
            let (kinds, source, verdict_line) = match &violation.reduction {
                Some(reduction) => (
                    reduction.kinds.clone(),
                    reduction.source.clone(),
                    reduction.verdict.verdict_line(),
                ),
                None => (
                    leakchecker_benchsuite::generate_fuzz(v.seed).kinds,
                    leakchecker_benchsuite::generate_fuzz(v.seed).source,
                    v.verdict_line(),
                ),
            };
            let entry = CorpusEntry {
                seed: v.seed,
                kinds,
                iterations_per_handler: options.iterations,
                query_budget: None,
                max_retries: None,
                verdict: verdict_line,
                source,
            };
            let path = std::path::Path::new(dir).join(entry.file_name("violation"));
            std::fs::write(&path, render_entry(&entry))
                .map_err(|e| LeakcError::Input(format!("cannot write {}: {e}", path.display())))?;
            let _ = writeln!(out, "  reproducer written to {}", path.display());
        }
    }
    if !campaign.errors.is_empty() {
        let _ = writeln!(out, "harness errors: {}", campaign.errors.len());
        for e in &campaign.errors {
            let _ = writeln!(out, "  ERROR {e}");
        }
    }
    if let Some(path) = &options.json {
        write_atomic(
            std::path::Path::new(path),
            render_campaign_json(&campaign).as_bytes(),
        )
        .map_err(|e| LeakcError::Input(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "campaign summary written to {path}");
    }
    // A witness naming an edge the dynamic run never produced is a
    // hard failure on par with a missed leak (same leaks-over-degraded
    // precedence): the explanation layer must never fabricate evidence.
    let exit_code = if !campaign.violations.is_empty() || !campaign.witness_mismatches.is_empty() {
        EXIT_LEAKS
    } else if !campaign.quarantined_seeds.is_empty() {
        EXIT_DEGRADED
    } else {
        EXIT_CLEAN
    };
    Ok(CliOutput {
        text: out,
        exit_code,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_check_with_flags() {
        let cmd = parse_args(&argv(&[
            "check",
            "app.jml",
            "--no-pivot",
            "--threads",
            "--k",
            "4",
            "--cha",
        ]))
        .unwrap();
        let Command::Check { file, options, .. } = cmd else {
            panic!("expected check");
        };
        assert_eq!(file, "app.jml");
        assert!(!options.pivot);
        assert!(options.threads);
        assert_eq!(options.k, 4);
        assert!(options.cha);
        let config = options.to_config();
        assert!(!config.pivot_mode);
        assert_eq!(config.contexts.k, 4);
    }

    #[test]
    fn parses_jobs_flag() {
        let cmd = parse_args(&argv(&["check", "app.jml", "--jobs", "4"])).unwrap();
        let Command::Check { options, .. } = cmd else {
            panic!("expected check");
        };
        assert_eq!(options.jobs, 4);
        assert_eq!(options.to_config().jobs, 4);
        assert!(parse_args(&argv(&["check", "x", "--jobs"])).is_err());
        assert!(parse_args(&argv(&["check", "x", "--jobs", "many"])).is_err());
        // Default stays sequential.
        assert_eq!(CheckOptions::default().jobs, 1);
    }

    #[test]
    fn check_prints_phase_stats() {
        let dir = std::env::temp_dir().join("leakc-test-jobs");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leaky.jml");
        std::fs::write(
            &path,
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let text = execute(Command::Check {
            file: path.to_string_lossy().to_string(),
            loop_index: None,
            auto: false,
            options: CheckOptions {
                jobs: 2,
                ..CheckOptions::default()
            },
            json: None,
            trace: None,

            cache: None,
        })
        .unwrap();
        assert_eq!(text.exit_code, EXIT_LEAKS);
        let text = text.text;
        assert!(text.contains("phases: callgraph"), "{text}");
        assert!(text.contains("refine"), "{text}");
        assert!(text.contains(", compile "), "{text}");
        assert!(text.contains("governance:"), "{text}");
        assert!(text.contains("2 jobs"), "{text}");
        assert!(text.contains("rounds"), "{text}");
        assert!(text.contains("locals copied"), "{text}");
        assert!(text.contains("effects truncated: no"), "{text}");
        assert!(text.contains("new Item"), "{text}");
    }

    #[test]
    fn check_surfaces_effects_truncation() {
        // Regression: `EffectSummary::truncated` used to be computed and
        // then silently dropped by the detector. A recursion-to-cap
        // subject must now surface it on the governance line and in the
        // machine summary — without claiming degradation (truncation is
        // a jobs-independent soundness note, not a resource-ladder rung).
        let dir = std::env::temp_dir().join("leakc-test-truncation");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("recursive.jml");
        std::fs::write(
            &path,
            "class Main {
               static void spin(int n) { Main.spin(n - 1); }
               static void main() {
                 @check while (nondet()) {
                   Main.spin(3);
                 }
               }
             }",
        )
        .unwrap();
        let json_path = dir.join("summary.json");
        let out = execute(Command::Check {
            file: path.to_string_lossy().to_string(),
            loop_index: None,
            auto: false,
            options: CheckOptions::default(),
            json: Some(json_path.to_string_lossy().to_string()),
            trace: None,

            cache: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, EXIT_CLEAN, "{}", out.text);
        assert!(out.text.contains("effects truncated: yes"), "{}", out.text);
        let summary = std::fs::read_to_string(&json_path).unwrap();
        assert!(summary.contains("\"effects_truncated\": true"), "{summary}");
        assert!(summary.contains("\"effects_rounds\": "), "{summary}");
        assert!(summary.contains("\"degraded\": false"), "{summary}");
    }

    #[test]
    fn parses_run_and_loop_flags() {
        let cmd = parse_args(&argv(&["run", "x.jml", "--iterations", "7"])).unwrap();
        assert_eq!(
            cmd,
            Command::Run {
                file: "x.jml".to_string(),
                iterations: 7
            }
        );
        let cmd = parse_args(&argv(&["check", "x.jml", "--loop", "2"])).unwrap();
        let Command::Check { loop_index, .. } = cmd else {
            panic!()
        };
        assert_eq!(loop_index, Some(2));
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_args(&argv(&["check"])).is_err());
        assert!(parse_args(&argv(&["check", "x", "--k"])).is_err());
        assert!(parse_args(&argv(&["check", "x", "--wat"])).is_err());
        assert!(parse_args(&argv(&["frobnicate"])).is_err());
        assert_eq!(parse_args(&[]).unwrap(), Command::Help { topic: None });
    }

    #[test]
    fn executes_end_to_end_from_a_temp_file() {
        let dir = std::env::temp_dir().join("leakc-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leaky.jml");
        std::fs::write(
            &path,
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let file = path.to_string_lossy().to_string();

        let out = execute(Command::Check {
            file: file.clone(),
            loop_index: None,
            auto: false,
            options: CheckOptions::default(),
            json: None,
            trace: None,

            cache: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, EXIT_LEAKS, "a found leak must exit 1");
        assert!(out.text.contains("new Item"), "{}", out.text);
        assert!(out.text.contains("redundant edge"), "{}", out.text);

        let text = execute(Command::Run {
            file: file.clone(),
            iterations: 30,
        })
        .unwrap()
        .text;
        assert!(text.contains("30 tracked iterations"), "{text}");
        assert!(text.contains("dynamic baseline"), "{text}");

        let text = execute(Command::Loops { file: file.clone() }).unwrap().text;
        assert!(text.contains("Main.main"), "{text}");

        let text = execute(Command::Print { file }).unwrap().text;
        assert!(text.contains("class Holder"), "{text}");
    }

    #[test]
    fn explain_and_trace_flags_run_end_to_end() {
        let cmd = parse_args(&argv(&[
            "check",
            "app.jml",
            "--explain",
            "--trace",
            "out.jsonl",
        ]))
        .unwrap();
        let Command::Check {
            options, ref trace, ..
        } = cmd
        else {
            panic!("expected check");
        };
        assert!(options.explain);
        assert_eq!(trace.as_deref(), Some("out.jsonl"));
        assert!(options.to_config().witnesses);
        assert!(parse_args(&argv(&["check", "x", "--trace"])).is_err());

        let dir = std::env::temp_dir().join("leakc-test-explain");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leaky.jml");
        std::fs::write(
            &path,
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let trace_path = dir.join("trace.jsonl");
        let out = execute(Command::Check {
            file: path.to_string_lossy().to_string(),
            loop_index: None,
            auto: false,
            options: CheckOptions {
                explain: true,
                ..CheckOptions::default()
            },
            json: None,
            trace: Some(trace_path.to_string_lossy().to_string()),

            cache: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, EXIT_LEAKS);
        assert!(out.text.contains("escape chain:"), "{}", out.text);
        assert!(out.text.contains("[stmt#"), "{}", out.text);
        assert!(out.text.contains("frontier: no matching"), "{}", out.text);
        let jsonl = std::fs::read_to_string(&trace_path).unwrap();
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with("{\"phase\": \"refine\""),
                "unexpected trace line {line:?}"
            );
            assert!(line.contains("\"outcome\": "), "{line}");
            protocol::parse_json(line).expect("trace line parses as JSON");
        }

        // --trace without --explain still records, but renders plainly.
        let out = execute(Command::Check {
            file: path.to_string_lossy().to_string(),
            loop_index: None,
            auto: false,
            options: CheckOptions::default(),
            json: None,
            trace: Some(trace_path.to_string_lossy().to_string()),

            cache: None,
        })
        .unwrap();
        assert_eq!(out.exit_code, EXIT_LEAKS);
        assert!(!out.text.contains("escape chain"), "{}", out.text);
        assert!(out.text.contains("trace events written"), "{}", out.text);
    }

    #[test]
    fn parses_serve_fleet_and_route_flags() {
        let cmd = parse_args(&argv(&[
            "serve",
            "--shard",
            "shard-a",
            "--epoch",
            "2",
            "--deadline-ms",
            "750",
            "--metrics-addr",
            "127.0.0.1:9100",
            "--no-coalesce",
        ]))
        .unwrap();
        let Command::Serve { options } = cmd else {
            panic!("expected serve");
        };
        assert_eq!(options.shard.as_deref(), Some("shard-a"));
        assert_eq!(options.epoch, 2);
        assert_eq!(options.deadline_ms, Some(750));
        assert_eq!(options.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert!(!options.coalesce);

        let cmd = parse_args(&argv(&[
            "route",
            "--shard",
            "127.0.0.1:7001",
            "--shard",
            "127.0.0.1:7002",
            "--retries",
            "6",
            "--backoff-ms",
            "5",
            "--hedge-ms",
            "40",
            "--deadline-ms",
            "9000",
            "--breaker-failures",
            "2",
            "--breaker-cooldown-ms",
            "100",
            "--vnodes",
            "32",
            "--metrics-addr",
            "127.0.0.1:9101",
        ]))
        .unwrap();
        let Command::Route { options } = cmd else {
            panic!("expected route");
        };
        assert_eq!(options.shards, vec!["127.0.0.1:7001", "127.0.0.1:7002"]);
        assert_eq!(options.retries, 6);
        assert_eq!(options.backoff_ms, 5);
        assert_eq!(options.hedge_ms, Some(40));
        assert_eq!(options.deadline_ms, Some(9000));
        assert_eq!(options.breaker_failures, 2);
        assert_eq!(options.breaker_cooldown_ms, 100);
        assert_eq!(options.vnodes, 32);
        assert_eq!(options.metrics_addr.as_deref(), Some("127.0.0.1:9101"));

        // A fleet of zero shards is a usage error, as is an unknown flag.
        assert!(parse_args(&argv(&["route"])).is_err());
        assert!(parse_args(&argv(&["route", "--shard"])).is_err());
        assert!(parse_args(&argv(&["route", "--shard", "x", "--wat"])).is_err());
        // `leakc help route` documents the subcommand.
        assert!(usage_for(Some("route")).contains("half-open"));
        assert!(usage_for(Some("serve")).contains("--epoch"));
    }

    #[test]
    fn parses_fuzz_flags() {
        let cmd = parse_args(&argv(&[
            "fuzz",
            "--seeds",
            "50",
            "--seed",
            "1234",
            "--jobs",
            "0",
            "--iterations",
            "4",
            "--json",
            "out.json",
            "--corpus-dir",
            "corpus",
        ]))
        .unwrap();
        let Command::Fuzz { options } = cmd else {
            panic!("expected fuzz");
        };
        assert_eq!(options.seeds, 50);
        assert_eq!(options.seed, 1234);
        assert_eq!(options.jobs, 0);
        assert_eq!(options.iterations, 4);
        assert_eq!(options.json.as_deref(), Some("out.json"));
        assert_eq!(options.corpus_dir.as_deref(), Some("corpus"));
        assert!(!options.write_exemplars);

        assert!(parse_args(&argv(&["fuzz", "--seeds"])).is_err());
        assert!(parse_args(&argv(&["fuzz", "--wat"])).is_err());
        assert!(
            parse_args(&argv(&["fuzz", "--write-exemplars"])).is_err(),
            "--write-exemplars requires --corpus-dir"
        );
    }

    #[test]
    fn fuzz_runs_a_bounded_campaign() {
        let dir = std::env::temp_dir().join("leakc-test-fuzz");
        std::fs::create_dir_all(&dir).unwrap();
        let json = dir.join("campaign.json");
        let text = execute(Command::Fuzz {
            options: FuzzOptions {
                seeds: 6,
                seed: 42,
                jobs: 2,
                json: Some(json.to_string_lossy().to_string()),
                ..FuzzOptions::default()
            },
        })
        .unwrap();
        assert_eq!(text.exit_code, EXIT_CLEAN);
        let text = text.text;
        assert!(text.contains("fuzzed 6 programs"), "{text}");
        assert!(text.contains("soundness violations: 0"), "{text}");
        assert!(text.contains("governance: 0 degraded runs"), "{text}");
        let written = std::fs::read_to_string(&json).unwrap();
        assert!(written.contains("\"programs\": 6"), "{written}");
    }

    #[test]
    fn fuzz_writes_exemplar_corpus() {
        let dir = std::env::temp_dir().join("leakc-test-exemplars");
        let _ = std::fs::remove_dir_all(&dir);
        let text = execute(Command::Fuzz {
            options: FuzzOptions {
                corpus_dir: Some(dir.to_string_lossy().to_string()),
                write_exemplars: true,
                ..FuzzOptions::default()
            },
        })
        .unwrap()
        .text;
        assert!(text.contains("12 exemplar corpus entries"), "{text}");
        let count = std::fs::read_dir(&dir).unwrap().count();
        assert_eq!(count, 12);
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let err = execute(Command::Print {
            file: "/nonexistent/х.jml".to_string(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot read"), "{err}");
        assert_eq!(err.exit_code(), EXIT_USAGE);
    }

    #[test]
    fn parses_governance_flags() {
        let cmd = parse_args(&argv(&[
            "check",
            "app.jml",
            "--deadline-ms",
            "500",
            "--query-budget",
            "1234",
            "--max-retries",
            "3",
            "--inject",
            "exhaust@2,panic@5,deadline@9",
        ]))
        .unwrap();
        let Command::Check { options, .. } = cmd else {
            panic!("expected check");
        };
        assert_eq!(options.deadline_ms, Some(500));
        assert_eq!(options.query_budget, 1234);
        assert_eq!(options.max_retries, 3);
        let config = options.to_config();
        assert_eq!(config.governor.deadline_ms, Some(500));
        assert_eq!(config.governor.query_budget, 1234);
        assert_eq!(config.governor.max_retries, 3);
        assert!(config.governor.faults.exhausts(2));
        assert!(config.governor.faults.panics(5));
        assert!(config.governor.faults.deadline_expired(9));

        assert!(parse_args(&argv(&["check", "x", "--deadline-ms"])).is_err());
        assert!(parse_args(&argv(&["check", "x", "--inject", "bogus@1"])).is_err());
        assert!(parse_args(&argv(&["fuzz", "--inject", "exhaust@1,exhaust@2"])).is_err());
    }

    #[test]
    fn starved_budget_still_reports_the_leak_with_a_degraded_tag() {
        let dir = std::env::temp_dir().join("leakc-test-degraded");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("leaky.jml");
        std::fs::write(
            &path,
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        )
        .unwrap();
        let out = execute(Command::Check {
            file: path.to_string_lossy().to_string(),
            loop_index: None,
            auto: false,
            options: CheckOptions {
                query_budget: 1,
                max_retries: 0,
                ..CheckOptions::default()
            },
            json: None,
            trace: None,

            cache: None,
        })
        .unwrap();
        // Degradation may never launder a definite leak into exit 0 or 3:
        // the leak is found (exit 1), tagged degraded, and counted.
        assert_eq!(out.exit_code, EXIT_LEAKS, "{}", out.text);
        assert!(out.text.contains("new Item"), "{}", out.text);
        assert!(
            out.text.contains("degraded: budget-exhausted"),
            "{}",
            out.text
        );
        assert!(out.text.contains("1 degraded reports"), "{}", out.text);
    }

    #[test]
    fn injected_fuzz_campaign_exits_degraded() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = execute(Command::Fuzz {
            options: FuzzOptions {
                seeds: 8,
                seed: 42,
                jobs: 2,
                inject: parse_fault_plan("panic@3").unwrap(),
                ..FuzzOptions::default()
            },
        })
        .unwrap();
        std::panic::set_hook(hook);
        assert_eq!(
            out.exit_code, EXIT_DEGRADED,
            "a quarantined seed must surface as exit 3: {}",
            out.text
        );
        assert!(out.text.contains("QUARANTINED seed=45"), "{}", out.text);
        assert!(out.text.contains("soundness violations: 0"), "{}", out.text);
    }
}
