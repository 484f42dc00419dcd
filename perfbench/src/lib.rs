//! The repository's benchmark: end-to-end time-to-verdict and fleet
//! latency on three workloads, plus a separately traced run that splits
//! the time over the system's layers, measured from outside through the
//! public layer functions.
//!
//! Run it as
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload large-check --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Every run prints one line per metric (name, value, unit, sample
//! count) and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See README.md for
//! the workloads and the layer map.

pub mod fleet;
pub mod gate;
pub mod inproc;
pub mod pipeline;
pub mod stats;
pub mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Analysis width of the "parallel" measurements: jobs for in-process
/// checks, client connections for the fleet. Fixed rather than read
/// from the machine so that every run measures the same configuration;
/// the workloads are sized for two cores.
pub const WIDTH: usize = 2;

/// Set-up is timed this many times per end-to-end run of `corpus-small`,
/// and its median reported. On a shared machine set-up time swings
/// between two speeds a third apart, second by second, so the median
/// needs many draws spread over the run to settle.
pub const SETUP_REPEATS: usize = 15;

/// The same for `large-check` and `fleet-edit`, whose set-ups take 0.2 s
/// and 1 s: fewer repeats, so that they leave most of the run to the
/// measured passes.
pub const SLOW_SETUP_REPEATS: usize = 7;

/// End-to-end metrics, reported by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("verdict_p50_ms", "ms"),
    ("verdict_par_p50_ms", "ms"),
    ("verdict_p99_ms", "ms"),
    ("verdicts_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every `--trace 1` run. A layer a
/// workload never calls reads 0 with a sample count of 0.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("frontend.lex_us", "us"),
    ("frontend.parse_us", "us"),
    ("frontend.lower_us", "us"),
    ("frontend.tokens", "count"),
    ("target.resolve_us", "us"),
    ("callgraph.build_us", "us"),
    ("callgraph.methods", "count"),
    ("effects.analyze_us", "us"),
    ("effects.rounds", "count"),
    ("effects.regions", "count"),
    ("flows.build_us", "us"),
    ("flows.edges", "count"),
    ("contexts.enumerate_us", "us"),
    ("contexts.pairs", "count"),
    ("pointsto.pag_build_us", "us"),
    ("refine.us", "us"),
    ("refine.candidates", "count"),
    ("refine.refuted", "count"),
    ("refine.batches", "count"),
    ("refine.fallbacks", "count"),
    ("detect.rest_us", "us"),
    ("report.render_us", "us"),
    ("report.bytes", "bytes"),
    ("parallel.overhead_us", "us"),
    ("cache.keys_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.record_us", "us"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.invalidated", "count"),
    ("cache.delta_hit_ratio", "ratio"),
    ("protocol.parse_us", "us"),
    ("protocol.frame_bytes", "bytes"),
    ("serve.direct_rtt_us", "us"),
    ("serve.coalesced", "count"),
    ("serve.shed", "count"),
    ("router.hop_us", "us"),
    ("router.retries", "count"),
    ("trace.total_us", "us"),
    ("trace.overhead_us", "us"),
];

/// The three workloads.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ~100k-statement generated subject, checked at widths 1 and 2.
    LargeCheck,
    /// Table-1 subjects plus a seeded draw of fuzz programs.
    CorpusSmall,
    /// Editor-like traffic through a router over two cached shards.
    FleetEdit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "large-check" => Some(Workload::LargeCheck),
            "corpus-small" => Some(Workload::CorpusSmall),
            "fleet-edit" => Some(Workload::FleetEdit),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LargeCheck => "large-check",
            Workload::CorpusSmall => "corpus-small",
            Workload::FleetEdit => "fleet-edit",
        }
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload large-check|corpus-small|fleet-edit --seed N --seconds S --trace 0|1";

/// Parses `--workload W --seed N --seconds S --trace 0|1`.
///
/// # Errors
///
/// Unknown flags, missing values, or out-of-range values.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value (a median, unless the name says otherwise).
    pub value: f64,
    /// 90th percentile, for per-layer timings.
    pub p90: Option<f64>,
    /// Samples behind the value.
    pub samples: usize,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts or requests attempted.
    pub attempted: u64,
    /// Wrong verdicts, typed errors and non-ok frames.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// A run-level check that failed (reconciliation, replay mismatch,
    /// counter disagreement): the run is not correct.
    pub fatal: Option<String>,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Extra human-readable lines (breakdowns behind the metrics).
    pub notes: Vec<String>,
    /// Every set-up time of an end-to-end run, in seconds.
    pub setups: Vec<f64>,
}

impl Outcome {
    /// Counts one attempted verdict and, when it is wrong, one failure.
    pub fn judge(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = verdict {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    /// Marks the run as not correct, keeping the first reason.
    pub fn fatal(&mut self, reason: String) {
        self.fatal.get_or_insert(reason);
    }

    /// Whether the run attempted something and every answer and
    /// run-level check was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.fatal.is_none()
    }
}

/// A workload's set-up, timed a fixed number of times per run
/// ([`SETUP_REPEATS`] or [`SLOW_SETUP_REPEATS`]).
///
/// The first time makes the inputs the run uses. The repeats are spread
/// evenly over the measured seconds, run between two passes once they
/// are due, so that their median samples the machine's speed across the
/// whole run as the other metrics do. Back-to-back repeats would all
/// land in one second, and the speed of a shared machine drifts by up to
/// 40% from one second to the next.
pub struct Setup<F> {
    make: F,
    start: Instant,
    seconds: f64,
    repeats: usize,
    /// Set-up times so far, in seconds.
    pub times: Vec<f64>,
}

impl<F, T> Setup<F>
where
    F: FnMut() -> Result<T, String>,
{
    /// Makes the inputs once, timed, for a run of `seconds` that times
    /// the set-up `repeats` times in all; the clock for the repeats
    /// starts when this returns.
    ///
    /// # Errors
    ///
    /// Whatever `make` fails with.
    pub fn first(mut make: F, seconds: f64, repeats: usize) -> Result<(T, Setup<F>), String> {
        let start = Instant::now();
        let made = make()?;
        let times = vec![start.elapsed().as_secs_f64()];
        Ok((
            made,
            Setup {
                make,
                start: Instant::now(),
                seconds,
                repeats,
                times,
            },
        ))
    }

    fn repeat(&mut self) -> Result<(), String> {
        let start = Instant::now();
        drop(std::hint::black_box((self.make)()?));
        self.times.push(start.elapsed().as_secs_f64());
        Ok(())
    }

    /// Called between passes: runs the repeats that are due by now.
    ///
    /// # Errors
    ///
    /// A repeat that fails.
    pub fn between_passes(&mut self) -> Result<(), String> {
        while self.times.len() < self.repeats {
            let due = self.seconds * self.times.len() as f64 / self.repeats as f64;
            if self.start.elapsed().as_secs_f64() < due {
                break;
            }
            self.repeat()?;
        }
        Ok(())
    }

    /// Runs the repeats still owed and returns every set-up time.
    ///
    /// # Errors
    ///
    /// A repeat that fails.
    pub fn finish(mut self) -> Result<Vec<f64>, String> {
        while self.times.len() < self.repeats {
            self.repeat()?;
        }
        Ok(self.times)
    }
}

/// Peak resident memory of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Directory for traces and fleet caches, inside the benchmark package.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The end-to-end metrics from per-verdict times in ms at width 1
/// (`one`) and width [`WIDTH`] (`par`), the wall seconds the `par`
/// verdicts took, and the set-up times.
pub fn end_to_end(one: &[f64], par: &[f64], par_secs: f64, setups: &[f64]) -> Vec<Metric> {
    let metric = |i: usize, value: Option<f64>, samples: usize| Metric {
        name: END_TO_END[i].0,
        unit: END_TO_END[i].1,
        value: value.unwrap_or(0.0),
        p90: None,
        samples,
    };
    vec![
        metric(0, stats::median(one), one.len()),
        metric(1, stats::median(par), par.len()),
        metric(2, stats::percentile(par, 99.0), par.len()),
        metric(
            3,
            (par_secs > 0.0).then(|| par.len() as f64 / par_secs),
            par.len(),
        ),
        metric(4, stats::median(setups), setups.len()),
        metric(5, Some(peak_rss_mb()), 1),
    ]
}

/// The per-layer metrics of a traced run: each timing is the median of
/// its per-sample values, each counter the median of its observations;
/// `fixed` supplies values measured some other way (whole-run counters,
/// ratios, differences of medians).
pub fn per_layer(rec: &trace::Recorder, fixed: &[(&str, f64, usize)]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if let Some(&(_, value, samples)) = fixed.iter().find(|f| f.0 == name) {
                return Metric {
                    name,
                    unit,
                    value,
                    p90: None,
                    samples,
                };
            }
            let values = if unit == "us" {
                rec.per_sample(name)
            } else {
                rec.count_values(name)
            };
            Metric {
                name,
                unit,
                value: stats::median(&values).unwrap_or(0.0),
                p90: (unit == "us")
                    .then(|| stats::percentile(&values, 90.0))
                    .flatten(),
                samples: values.len(),
            }
        })
        .collect()
}

/// Writes a traced run's spans as JSON lines under [`out_dir`].
pub fn write_trace(rec: &trace::Recorder, args: &Args) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, rec.to_jsonl(args.workload.name()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Renders the result line.
pub fn result_json(outcome: &Outcome) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Runs the benchmark with command-line arguments; returns the exit
/// code: 0 for a correct run, 1 for a run with a wrong answer or a
/// failed run-level check (its metrics and result line are printed
/// all the same), 2 for a bad command line.
pub fn main_with(raw: Vec<String>) -> i32 {
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return 2;
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (width {WIDTH}, {cores} cores available)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = match args.workload {
        Workload::LargeCheck => inproc::large_check(&args),
        Workload::CorpusSmall => inproc::corpus_small(&args),
        Workload::FleetEdit => fleet::fleet_edit(&args),
    };
    for m in &outcome.metrics {
        let p90 = m.p90.map(|v| format!(" p90 {v:.1}")).unwrap_or_default();
        println!(
            "  {:<24} {:>14.4} {:<6}{p90} (n={})",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<24} {:>14.4} ratio  ({} failed of {} attempted)",
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if !outcome.setups.is_empty() {
        let times: Vec<String> = outcome.setups.iter().map(|t| format!("{t:.4}")).collect();
        println!("  set-up times (s, in order): {}", times.join(" "));
    }
    for p in &outcome.problems {
        println!("  wrong: {p}");
    }
    if let Some(reason) = &outcome.fatal {
        println!("  not correct: {reason}");
    }
    println!("{}", result_json(&outcome));
    if outcome.correct() {
        0
    } else {
        1
    }
}
