//! Reproduces Table 1 of the paper: per-subject Mtds, Stmts, Time, LO,
//! LS, FP and FPR, plus case-study detail with `--case <name>`.
//!
//! ```text
//! cargo run -p leakchecker-bench --release --bin table1
//! cargo run -p leakchecker-bench --release --bin table1 -- --case derby
//! cargo run -p leakchecker-bench --release --bin table1 -- --jobs 4 --sweep --json BENCH_table1.json
//! ```

use leakchecker::render_all as render_reports;
use leakchecker_bench::{
    render_json, render_scaling, render_table, run_subject, scaling_sweep, size_sweep,
    subject_or_exit, summarize_trace, table1_rows_jobs, ScalingPoint, SweepPoint, SWEEP_SAMPLES,
};

struct Args {
    case: Option<String>,
    jobs: usize,
    json: Option<String>,
    sweep: bool,
    scale: usize,
    jobs_list: Vec<usize>,
    trace_summary: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        case: None,
        jobs: 1,
        json: None,
        sweep: false,
        scale: 100_000,
        jobs_list: vec![1, 2, 4, 8],
        trace_summary: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--case" => args.case = it.next().cloned(),
            "--jobs" => {
                args.jobs = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => args.json = it.next().cloned(),
            "--sweep" => args.sweep = true,
            "--scale" => {
                args.scale = it
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--jobs-list" => {
                args.jobs_list = it
                    .next()
                    .map(|list| {
                        list.split(',')
                            .map(|n| n.trim().parse().unwrap_or_else(|_| usage()))
                            .collect()
                    })
                    .unwrap_or_else(|| usage());
                if args.jobs_list.is_empty() {
                    usage();
                }
            }
            "--trace-summary" => args.trace_summary = it.next().cloned(),
            _ => usage(),
        }
    }
    args
}

fn usage() -> ! {
    eprintln!(
        "usage: table1 [--case <subject>] [--jobs N] [--json <path>] [--sweep] \
         [--scale <statements>] [--jobs-list N,N,...] [--trace-summary <trace.jsonl>]"
    );
    std::process::exit(2);
}

/// Aggregates a `leakc check --trace out.jsonl` file: events, ticket
/// spend and edge counts per phase and outcome.
fn trace_summary(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match summarize_trace(&text) {
        Ok(summary) => {
            println!("trace summary for {path}");
            print!("{}", summary.render());
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = parse_args();
    if let Some(path) = &args.trace_summary {
        trace_summary(path);
        return;
    }
    if let Some(name) = &args.case {
        case_study(name);
        return;
    }
    println!(
        "Reproduction of Table 1 (analysis results on eight subjects, {} job(s))\n",
        leakchecker::effective_jobs(args.jobs)
    );
    let rows = table1_rows_jobs(args.jobs);
    print!("{}", render_table(&rows));
    println!();

    let sweep: Vec<SweepPoint> = if args.sweep {
        let par_jobs = if args.jobs > 1 { args.jobs } else { 4 };
        println!("jobs sweep over generated programs (jobs=1 vs jobs={par_jobs}):");
        let sweep = size_sweep(&[16, 48, 96, 160], par_jobs);
        println!(
            "{:>9} {:>7} {:>10} {:>10} {:>8}",
            "handlers", "stmts", "seq(s)", "par(s)", "speedup"
        );
        for p in &sweep {
            println!(
                "{:>9} {:>7} {:>10.4} {:>10.4} {:>7.2}x",
                p.handlers,
                p.statements,
                p.seq_secs,
                p.par_secs,
                p.speedup()
            );
        }
        println!();
        sweep
    } else {
        Vec::new()
    };

    let scaling: Vec<ScalingPoint> = if args.sweep {
        println!(
            "parallel-scaling sweep: one ~{}-statement generated subject, jobs {:?} \
             (median of {} after warmup; machine width {}):",
            args.scale,
            args.jobs_list,
            SWEEP_SAMPLES,
            std::thread::available_parallelism().map_or(1, |n| n.get())
        );
        let scaling = scaling_sweep(args.scale, &args.jobs_list, SWEEP_SAMPLES);
        print!("{}", render_scaling(&scaling));
        println!();
        scaling
    } else {
        Vec::new()
    };

    if let Some(path) = &args.json {
        let json = render_json(&rows, &sweep, &scaling);
        // Atomic temp-file + rename: a reader (or a kill) mid-write
        // never observes a torn JSON file.
        match leakchecker::write_atomic(std::path::Path::new(path), json.as_bytes()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    println!("Notes: absolute Mtds/Stmts/Time differ from the paper (the subjects");
    println!("are synthetic models, not the original megabyte-scale binaries);");
    println!("the shape — every known leak found, FP causes per case study, the");
    println!("0% FPR row for log4j — is the reproduced result. See EXPERIMENTS.md.");
}

fn case_study(name: &str) {
    let subject = subject_or_exit(name);
    println!("case study: {} — {}\n", subject.name, subject.description);
    println!("paper: {}\n", subject.paper.note);
    let (result, score) = run_subject(&subject);
    println!(
        "pipeline: {} reachable methods, {} statements, {:.3}s",
        result.stats.methods, result.stats.statements, result.stats.time_secs
    );
    let p = result.stats.phases;
    println!(
        "phases: callgraph {:.3}s, effects {:.3}s, flows {:.3}s, contexts {:.3}s, \
         refine {:.3}s, matching {:.3}s",
        p.callgraph_secs,
        p.effects_secs,
        p.flows_secs,
        p.contexts_secs,
        p.refine_secs,
        p.matching_secs
    );
    println!(
        "governance: {} exhausted, {} retries, {} fallbacks, {} quarantined, \
         {} deadline hits, {} degraded reports",
        result.stats.exhausted_queries,
        result.stats.retries,
        result.stats.fallbacks,
        result.stats.quarantined,
        result.stats.deadline_hits,
        result.stats.degraded_reports
    );
    println!(
        "LO = {} context-sensitive allocation sites in the analyzed loop",
        result.stats.loop_objects
    );
    println!(
        "LS = {} reported context-sensitive leaking sites\n",
        result.stats.leaking_sites
    );
    print!("{}", render_reports(&result.program, &result.reports));
    println!();
    println!(
        "score vs ground truth: {} true positive(s), {} false positive(s), {} missed",
        score.true_positives, score.false_positives, score.missed_leaks
    );
    if !score.fp_causes.is_empty() {
        println!("false-positive causes: {:?}", score.fp_causes);
    }
}
