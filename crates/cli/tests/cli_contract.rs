//! Process-level contract tests for the `leakc` binary: exit codes,
//! usage text on stderr, graceful SIGTERM drain, and crash-safety of
//! `--json` outputs and campaign journals.

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn leakc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_leakc"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("leakc-contract-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn unknown_flags_print_usage_to_stderr_and_exit_2() {
    for argv in [
        vec!["check", "x.jml", "--frobnicate"],
        vec!["fuzz", "--wat"],
        vec!["serve", "--bogus"],
        vec!["no-such-command"],
    ] {
        let out = leakc().args(&argv).output().expect("spawn leakc");
        assert_eq!(
            out.status.code(),
            Some(2),
            "argv {argv:?} must exit 2 (usage)"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("USAGE:"),
            "argv {argv:?} must print usage to stderr, got:\n{stderr}"
        );
        assert!(
            stderr.contains("error:"),
            "argv {argv:?} must name the offending flag:\n{stderr}"
        );
    }
}

#[test]
fn help_documents_every_subcommand_and_the_exit_codes() {
    for argv in [
        vec!["--help"],
        vec!["help"],
        vec!["help", "check"],
        vec!["help", "fuzz"],
        vec!["help", "serve"],
        vec!["check", "--help"],
        vec!["serve", "--help"],
    ] {
        let out = leakc().args(&argv).output().expect("spawn leakc");
        assert_eq!(out.status.code(), Some(0), "{argv:?} is not an error");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("EXIT CODES:"),
            "{argv:?} must document the exit-code contract:\n{stdout}"
        );
    }
}

#[cfg(unix)]
fn wait_for_line(child: &mut Child, needle: &str) -> String {
    let stdout = child.stdout.as_mut().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut seen = String::new();
    for _ in 0..50 {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        seen.push_str(&line);
        if line.contains(needle) {
            return seen;
        }
    }
    panic!("child never printed `{needle}`; saw:\n{seen}");
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_and_exits_0() {
    let mut child = leakc()
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    wait_for_line(&mut child, "listening on");
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    // The daemon must drain and exit 0, not die on the signal (143).
    let start = std::time::Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            start.elapsed() < Duration::from_secs(15),
            "daemon did not exit after SIGTERM"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    assert_eq!(status.code(), Some(0), "graceful drain must exit 0");
    let mut rest = String::new();
    child
        .stdout
        .expect("piped stdout")
        .read_to_string(&mut rest)
        .expect("read remaining stdout");
    assert!(
        rest.contains("drained"),
        "drain summary missing from stdout:\n{rest}"
    );
}

/// Kills a campaign mid-flight and asserts the previously written
/// `--json` file is never torn: afterwards it holds either the old
/// bytes (rename never happened) or a complete fresh summary.
#[cfg(unix)]
#[test]
fn killed_campaign_never_tears_the_json_summary() {
    let dir = temp_dir("atomic-json");
    let json = dir.join("campaign.json");
    let old = "{\"sentinel\": \"previous campaign summary\"}\n";
    std::fs::write(&json, old).expect("seed old json");

    let mut child = leakc()
        .args([
            "fuzz",
            "--seeds",
            "64",
            "--jobs",
            "2",
            "--json",
            json.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn campaign");
    std::thread::sleep(Duration::from_millis(150));
    child.kill().expect("kill campaign");
    let _ = child.wait();

    let content = std::fs::read_to_string(&json).expect("json file still present");
    let intact_old = content == old;
    let complete_new = content.starts_with('{')
        && content.trim_end().ends_with('}')
        && content.contains("\"programs\"");
    assert!(
        intact_old || complete_new,
        "torn JSON after kill:\n{content}"
    );
}

const CLEAN_JML: &str = "class Order { }
class Tx { Order curr; }
class Main {
  static void main() {
    Tx t = new Tx();
    @check while (nondet()) {
      Order o = new Order();
      t.curr = o;
      Order prev = t.curr;
    }
  }
}
";

const LEAKY_JML: &str = "class Item { }
class Holder { Item item; }
class Main {
  static void main() {
    Holder h = new Holder();
    @check while (nondet()) {
      Item it = new Item();
      h.item = it;
    }
  }
}
";

/// Pins the full exit-code matrix over {leaks, no leaks} × {degraded,
/// not degraded}, and in particular the 1-over-3 precedence: a run that
/// both reports leaks and degrades must exit 1, never 3 — degradation
/// only over-approximates, so reported leaks stay definite, while exit
/// 3 is reserved for runs that would otherwise claim a clean bill of
/// health.
#[test]
fn exit_code_matrix_pins_leaks_over_degraded_precedence() {
    let dir = temp_dir("exit-matrix");
    let clean = dir.join("clean.jml");
    let leaky = dir.join("leaky.jml");
    std::fs::write(&clean, CLEAN_JML).expect("write clean.jml");
    std::fs::write(&leaky, LEAKY_JML).expect("write leaky.jml");
    let clean = clean.to_str().expect("utf8 path");
    let leaky = leaky.to_str().expect("utf8 path");
    let starve = ["--query-budget", "1", "--max-retries", "0"];

    // No leaks, not degraded -> 0.
    let out = leakc().args(["check", clean]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(0), "clean check must exit 0");

    // No leaks, not degraded, starved budgets but no candidates to
    // starve -> still 0: degradation is an event, not a configuration.
    let out = leakc()
        .args(["check", clean])
        .args(starve)
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(0),
        "no demand queries ran, so a starved budget must not claim degradation"
    );

    // Leaks, not degraded -> 1.
    let out = leakc().args(["check", leaky]).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "leaky check must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0 fallbacks") && !stdout.contains("(degraded:"),
        "precise run must not be tagged degraded:\n{stdout}"
    );

    // Leaks AND degraded -> 1 (the precedence cell). The starved budget
    // forces the refinement query onto the Andersen fallback, so the
    // run is demonstrably degraded — and must still exit 1.
    let out = leakc()
        .args(["check", leaky])
        .args(starve)
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "leaks must take precedence over degradation"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 fallbacks") && stdout.contains("(degraded: budget-exhausted)"),
        "starved run must actually have degraded:\n{stdout}"
    );

    // Same precedence under a deadline-shaped degrade.
    let out = leakc()
        .args(["check", leaky, "--inject", "deadline@0"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "leaks must take precedence over a deadline degrade"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(degraded: deadline-expired)"),
        "injected deadline must tag the report:\n{stdout}"
    );

    // No leaks, degraded -> 3. `check` can only degrade while holding a
    // candidate (which it then reports), so the finding-free degraded
    // cell comes from a fuzz campaign with one quarantined seed.
    let out = leakc()
        .args(["fuzz", "--seeds", "6", "--jobs", "1", "--inject", "panic@1"])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(3),
        "quarantine without findings must exit 3: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // No leaks, not degraded, fuzz flavor -> 0.
    let out = leakc()
        .args(["fuzz", "--seeds", "6", "--jobs", "1"])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "clean campaign must exit 0");
}

/// Drops the header lines that legitimately vary between runs —
/// wall-clock timings, the resolved jobs count, and the trace path
/// (the two runs write differently named files) — leaving every
/// report, witness and governance line for exact comparison.
fn strip_timing_lines(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| {
            !l.starts_with("target ")
                && !l.trim_start().starts_with("phases:")
                && !l.contains("trace events written to")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Witness output must be a pure function of the program: `--explain`
/// renders (modulo the timing header) and `--trace` JSONL streams are
/// byte-identical at any `--jobs` width, over every committed corpus
/// exemplar.
#[test]
fn witness_output_is_identical_across_jobs() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let dir = temp_dir("witness-determinism");
    let mut exemplars: Vec<_> = std::fs::read_dir(&corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jml"))
        .collect();
    exemplars.sort();
    assert!(!exemplars.is_empty(), "corpus must hold exemplars");

    for exemplar in &exemplars {
        let mut renders = Vec::new();
        let mut traces = Vec::new();
        for jobs in ["1", "8"] {
            let trace = dir.join(format!(
                "{}-j{jobs}.jsonl",
                exemplar.file_stem().unwrap().to_str().unwrap()
            ));
            let out = leakc()
                .args([
                    "check",
                    exemplar.to_str().expect("utf8 path"),
                    "--explain",
                    "--trace",
                    trace.to_str().expect("utf8 path"),
                    "--jobs",
                    jobs,
                ])
                .output()
                .expect("spawn leakc");
            assert!(
                matches!(out.status.code(), Some(0 | 1 | 3)),
                "{} must analyze cleanly, got {:?}:\n{}",
                exemplar.display(),
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            renders.push(out.stdout);
            traces.push(std::fs::read(&trace).expect("trace file written"));
        }
        assert_eq!(
            strip_timing_lines(&renders[0]),
            strip_timing_lines(&renders[1]),
            "{}: --explain render drifted between jobs 1 and 8",
            exemplar.display()
        );
        assert_eq!(
            String::from_utf8_lossy(&traces[0]),
            String::from_utf8_lossy(&traces[1]),
            "{}: --trace JSONL drifted between jobs 1 and 8",
            exemplar.display()
        );
    }
}

/// An interrupted, journaled campaign resumed with `--resume` must
/// produce the same summary JSON as an uninterrupted run — even at a
/// different `--jobs` width.
#[cfg(unix)]
#[test]
fn resumed_campaign_matches_an_uninterrupted_run() {
    let dir = temp_dir("resume");
    let full = dir.join("full.json");
    let resumed = dir.join("resumed.json");
    let journal = dir.join("campaign.journal");
    let base = ["fuzz", "--seeds", "24", "--seed", "7", "--iterations", "6"];

    let status = leakc()
        .args(base)
        .args(["--jobs", "1", "--json", full.to_str().expect("utf8")])
        .stdout(Stdio::null())
        .status()
        .expect("full run");
    assert!(status.code().is_some(), "full run finished");

    let mut child = leakc()
        .args(base)
        .args(["--jobs", "2", "--journal", journal.to_str().expect("utf8")])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn journaled campaign");
    std::thread::sleep(Duration::from_millis(120));
    child.kill().expect("kill campaign");
    let _ = child.wait();

    let out = leakc()
        .args(base)
        .args([
            "--jobs",
            "4",
            "--resume",
            journal.to_str().expect("utf8"),
            "--json",
            resumed.to_str().expect("utf8"),
        ])
        .output()
        .expect("resume run");
    assert!(
        out.status.code().is_some(),
        "resume run finished: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("resumed from journal"),
        "resume banner missing:\n{stdout}"
    );

    let a = std::fs::read_to_string(&full).expect("full json");
    let b = std::fs::read_to_string(&resumed).expect("resumed json");
    assert_eq!(a, b, "resumed campaign JSON drifted from uninterrupted run");
}

/// Drops the lines that vary between cached and cache-less runs — the
/// cache telemetry line on top of the usual timing headers — leaving
/// the report bytes for exact comparison.
fn strip_cache_lines(stdout: &[u8]) -> String {
    strip_timing_lines(stdout)
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n")
        .trim_end()
        .to_string()
}

/// kill -9 mid-commit: a check killed while appending to the summary
/// store leaves a torn, newline-less record. The next run must
/// quarantine it, degrade to a miss, re-analyze, and produce output
/// byte-identical to a cache-less run — and the run after that must
/// replay warm from the self-healed store.
#[test]
fn kill_nine_mid_commit_recovers_the_cache_as_a_miss() {
    let dir = temp_dir("cache-tear");
    let clean = dir.join("clean.jml");
    let leaky = dir.join("leaky.jml");
    std::fs::write(&clean, CLEAN_JML).expect("write clean.jml");
    std::fs::write(&leaky, LEAKY_JML).expect("write leaky.jml");
    let clean = clean.to_str().expect("utf8 path");
    let leaky = leaky.to_str().expect("utf8 path");
    let cache = dir.join("cache");
    let cache = cache.to_str().expect("utf8 path");
    let cache_file = dir.join("cache").join("summaries.lkc");

    // Cache-less baseline: the bytes every cached run must reproduce.
    let baseline = leakc().args(["check", leaky]).output().expect("spawn");
    assert_eq!(baseline.status.code(), Some(1));
    let baseline_text = strip_cache_lines(&baseline.stdout);

    // Seed the store with a different target so the header is already
    // committed and the next run's result append is a plain append.
    let out = leakc()
        .args(["check", clean, "--cache", cache])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(0), "seed run is clean");

    // The tear: die 30 bytes into the result-record append, no fsync.
    let out = leakc()
        .args(["check", leaky, "--cache", cache])
        .env("LEAKC_CACHE_TEAR_AT", "30")
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "torn run must die mid-commit, got {:?}",
        out.status
    );
    let bytes = std::fs::read(&cache_file).expect("cache file exists");
    assert!(
        !bytes.ends_with(b"\n"),
        "the tear must leave an uncertified (newline-less) record"
    );

    // Recovery: the torn record is quarantined, the lookup misses, and
    // the re-analysis reproduces the cache-less bytes exactly.
    let out = leakc()
        .args(["check", leaky, "--cache", cache])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "recovery run still finds the leak"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("1 misses") && stdout.contains("1 corrupt recovered"),
        "recovery run must count the quarantined record:\n{stdout}"
    );
    assert_eq!(
        strip_cache_lines(&out.stdout),
        baseline_text,
        "recovered run drifted from the cache-less baseline"
    );
    let bytes = std::fs::read(&cache_file).expect("cache file exists");
    assert!(bytes.ends_with(b"\n"), "recovery self-heals the torn tail");

    // Warm replay from the self-healed store: same bytes again.
    let out = leakc()
        .args(["check", leaky, "--cache", cache])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "warm run preserves the exit code"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(cached)") && stdout.contains("1 hits"),
        "warm run must replay from the store:\n{stdout}"
    );
    assert_eq!(
        strip_cache_lines(&out.stdout),
        baseline_text,
        "warm replay drifted from the cache-less baseline"
    );
}

/// A leaky program whose cold commit carries several method records.
const LEAKY_HELPERS_JML: &str = "class Item { }
class Holder { Item item; }
class Util {
  static Item make() { return new Item(); }
  static void keep(Holder h, Item it) { h.item = it; }
  static int tick(int n) { return n + 1; }
}
class Main {
  static void main() {
    Holder h = new Holder();
    int n = 0;
    @check while (nondet()) {
      Item it = Util.make();
      Util.keep(h, it);
      n = Util.tick(n);
    }
  }
}
";

/// kill -9 inside the method records of a multi-record commit: a cold
/// result commits its result record first, then its method records,
/// then its digest record, with one write. A tear past the result line
/// leaves the result certified, so the next run quarantines only the
/// torn method record, replays the result warm and prints the
/// cache-less bytes.
#[test]
fn kill_nine_inside_the_method_records_keeps_the_result() {
    let dir = temp_dir("cache-tear-methods");
    let clean = dir.join("clean.jml");
    let leaky = dir.join("leaky.jml");
    std::fs::write(&clean, CLEAN_JML).expect("write clean.jml");
    std::fs::write(&leaky, LEAKY_HELPERS_JML).expect("write leaky.jml");
    let clean = clean.to_str().expect("utf8 path");
    let leaky = leaky.to_str().expect("utf8 path");

    let baseline = leakc().args(["check", leaky]).output().expect("spawn");
    assert_eq!(baseline.status.code(), Some(1));
    let baseline_text = strip_cache_lines(&baseline.stdout);

    // Two stores seeded alike, so the next commit into each is a plain
    // append of the same bytes. The probe store shows where the result
    // line ends and the method records lie.
    let seeded = |name: &str| {
        let cache = dir.join(name);
        let cache = cache.to_str().expect("utf8 path").to_string();
        let out = leakc()
            .args(["check", clean, "--cache", &cache])
            .output()
            .expect("spawn");
        assert_eq!(out.status.code(), Some(0), "seed run is clean");
        cache
    };
    let probe = seeded("probe");
    let cache = seeded("cache");
    let probe_file = dir.join("probe").join("summaries.lkc");
    let cache_file = dir.join("cache").join("summaries.lkc");
    let seed_len = std::fs::read(&probe_file).expect("probe store").len();
    let out = leakc()
        .args(["check", leaky, "--cache", &probe])
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(1));
    let probe_bytes = std::fs::read(&probe_file).expect("probe store");
    let commit = String::from_utf8_lossy(&probe_bytes[seed_len..]).into_owned();
    let lines: Vec<&str> = commit.split_inclusive('\n').collect();
    let kinds: String = lines.iter().map(|l| &l[..1]).collect();
    assert!(
        kinds.starts_with("RMM") && kinds.ends_with('D'),
        "a cold commit is R, then M records, then D: {kinds}"
    );
    // Cut halfway through the second method record.
    let tear_at = lines[0].len() + lines[1].len() + lines[2].len() / 2;

    let out = leakc()
        .args(["check", leaky, "--cache", &cache])
        .env("LEAKC_CACHE_TEAR_AT", tear_at.to_string())
        .output()
        .expect("spawn");
    assert!(
        !out.status.success(),
        "torn run must die mid-commit, got {:?}",
        out.status
    );
    let torn = std::fs::read(&cache_file).expect("cache file exists");
    assert_eq!(torn.len(), seed_len + tear_at, "the tear cuts the commit");
    assert_eq!(
        &torn[..seed_len + lines[0].len() + lines[1].len()],
        &probe_bytes[..seed_len + lines[0].len() + lines[1].len()],
        "the certified prefix is the probe's result and first method record"
    );

    let out = leakc()
        .args(["check", leaky, "--cache", &cache])
        .output()
        .expect("spawn");
    assert_eq!(
        out.status.code(),
        Some(1),
        "recovery run still finds the leak"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("(cached)")
            && stdout.contains("1 hits")
            && stdout.contains("1 corrupt recovered"),
        "recovery run must replay the certified result warm:\n{stdout}"
    );
    assert_eq!(
        strip_cache_lines(&out.stdout),
        baseline_text,
        "recovered run drifted from the cache-less baseline"
    );
    let healed = std::fs::read(&cache_file).expect("cache file exists");
    assert_eq!(
        healed.len(),
        seed_len + lines[0].len() + lines[1].len(),
        "recovery truncates the torn record in place"
    );
}
