//! CI gate for the large-program mode: generates one seed-deterministic
//! ~`--stmts`-statement subject, analyzes it at every width in
//! `--jobs-list`, and fails on
//!
//! * a wall-clock regression — the sequential end-to-end time must stay
//!   under `--ceiling` seconds, and the sequential effects phase under
//!   [`EFFECTS_SECS_PER_100K`] per 100k requested statements;
//! * a work regression — the effects phase may copy at most
//!   [`LOCALS_COPIED_PER_STMT`] frame slots per requested statement (an
//!   exact counter, so the gate holds on any machine width, 1-CPU CI
//!   containers included);
//! * any determinism violation — `scaling_sweep` byte-compares the
//!   rendered reports across widths before timing anything.
//!
//! ```text
//! cargo run -p leakchecker-bench --release --bin scale_smoke -- \
//!   --stmts 100000 --ceiling 60 --jobs-list 1,2
//! ```

use leakchecker_bench::{render_scaling, scaling_sweep, SWEEP_SAMPLES};

/// Sequential effects-phase ceiling per 100k requested statements: 0.4 s
/// on the 100k subject, against ~0.09 s for in-place branches and
/// 1.0–1.4 s when every branch copied the caller's whole frame (2 vCPU).
const EFFECTS_SECS_PER_100K: f64 = 0.4;

/// Frame-slot copies allowed per requested statement: 1 M on the 100k
/// subject, against ~116 k for in-place branches and ~15.9 M when every
/// branch copied the caller's whole frame.
const LOCALS_COPIED_PER_STMT: usize = 10;

struct Args {
    stmts: usize,
    ceiling_secs: f64,
    jobs_list: Vec<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        stmts: 100_000,
        ceiling_secs: 120.0,
        jobs_list: vec![1, 2],
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut next = |what: &str| {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("scale_smoke: {flag} needs {what}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--stmts" => {
                args.stmts = next("a statement count")
                    .parse::<usize>()
                    .unwrap_or_else(|_| bad())
            }
            "--ceiling" => {
                args.ceiling_secs = next("seconds").parse::<f64>().unwrap_or_else(|_| bad())
            }
            "--jobs-list" => {
                args.jobs_list = next("a comma list")
                    .split(',')
                    .map(|n| n.trim().parse::<usize>().unwrap_or_else(|_| bad()))
                    .collect()
            }
            _ => {
                eprintln!("usage: scale_smoke [--stmts N] [--ceiling SECS] [--jobs-list N,N,...]");
                std::process::exit(2);
            }
        }
    }
    if args.jobs_list.is_empty() || args.jobs_list[0] != 1 {
        eprintln!("scale_smoke: --jobs-list must start with the sequential baseline 1");
        std::process::exit(2);
    }
    args
}

fn bad() -> ! {
    eprintln!("scale_smoke: malformed numeric argument");
    std::process::exit(2);
}

fn fail(message: String) -> ! {
    eprintln!("FAIL: {message}");
    std::process::exit(1);
}

fn main() {
    let args = parse_args();
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scale smoke: ~{} statements, jobs {:?}, machine width {width}",
        args.stmts, args.jobs_list
    );
    let points = scaling_sweep(args.stmts, &args.jobs_list, SWEEP_SAMPLES);
    print!("{}", render_scaling(&points));

    let seq = &points[0];
    if seq.statements < args.stmts * 4 / 5 {
        fail(format!(
            "generated only {} statements, wanted at least {}",
            seq.statements,
            args.stmts * 4 / 5
        ));
    }
    if seq.secs > args.ceiling_secs {
        fail(format!(
            "sequential analysis took {:.2}s, ceiling is {:.2}s",
            seq.secs, args.ceiling_secs
        ));
    }
    let effects_ceiling = EFFECTS_SECS_PER_100K * args.stmts as f64 / 100_000.0;
    if seq.effects_secs > effects_ceiling {
        fail(format!(
            "sequential effects phase took {:.3}s, ceiling is {effects_ceiling:.3}s",
            seq.effects_secs
        ));
    }
    let copy_budget = LOCALS_COPIED_PER_STMT * args.stmts;
    if seq.locals_copied > copy_budget {
        fail(format!(
            "effects copied {} frame slots, budget is {copy_budget}",
            seq.locals_copied
        ));
    }
    println!(
        "OK: sequential {:.2}s (ceiling {:.2}s), effects {:.3}s (ceiling {effects_ceiling:.3}s), \
         {} frame slots copied (budget {copy_budget})",
        seq.secs, args.ceiling_secs, seq.effects_secs, seq.locals_copied
    );
}
