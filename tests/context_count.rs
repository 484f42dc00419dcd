//! The loop-context count against a reference enumerator, and the
//! fan-out family whose context lists grow as `k^n`.
//!
//! The reference builds every (site, k-limited call string) pair by a
//! depth-first walk of the call graph from the loop body, the way the
//! detector once did. The count must equal its size per site, and a
//! site's report sample must be its whole set whenever the set fits the
//! sample.

use leakchecker::contexts::enumerate_jobs;
use leakchecker::target::resolve;
use leakchecker::{check, render_all, CheckTarget, ContextConfig, DetectorConfig, CONTEXT_SAMPLE};
use leakchecker_benchsuite::{all_subjects, generate_fuzz, generate_large, LargeConfig};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_frontend::compile;
use leakchecker_ir::ids::{AllocSite, LoopId, MethodId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::visit::{find_loop, walk_stmts};
use leakchecker_ir::Program;
use leakchecker_pointsto::Context;
use std::collections::{BTreeMap, BTreeSet, HashSet};

const KS: [usize; 5] = [0, 1, 2, 4, 8];

/// Every (site, context) pair executed under `designated`.
fn reference(
    program: &Program,
    callgraph: &CallGraph,
    designated: LoopId,
    k: usize,
) -> BTreeMap<AllocSite, BTreeSet<Context>> {
    let mut table: BTreeMap<AllocSite, BTreeSet<Context>> = BTreeMap::new();
    let method = program.loop_info(designated).method;
    let Some(body) = find_loop(&program.method(method).body, designated) else {
        return table;
    };
    let mut stack: Vec<(MethodId, Context)> = Vec::new();
    let mut visited: HashSet<(MethodId, Context)> = HashSet::new();
    let mut visit = |stmts: &[Stmt],
                     ctx: &Context,
                     stack: &mut Vec<(MethodId, Context)>,
                     table: &mut BTreeMap<AllocSite, BTreeSet<Context>>| {
        walk_stmts(stmts, &mut |stmt| match stmt {
            Stmt::New { site, .. } | Stmt::NewArray { site, .. } => {
                table.entry(*site).or_default().insert(ctx.clone());
            }
            Stmt::Call { site, .. } => {
                for &target in callgraph.targets(*site) {
                    let next = (target, ctx.push(*site, k));
                    if visited.insert(next.clone()) {
                        stack.push(next);
                    }
                }
            }
            _ => {}
        });
    };
    visit(body, &Context::empty(), &mut stack, &mut table);
    while let Some((method, ctx)) = stack.pop() {
        visit(&program.method(method).body, &ctx, &mut stack, &mut table);
    }
    table
}

/// Asserts count == reference size for every site at every k, and that
/// each sample is sorted, drawn from the reference set, and the whole
/// set when that fits. Returns the largest per-site count seen.
fn assert_counts_match(name: &str, program: &Program, target: CheckTarget) -> usize {
    let resolved = resolve(program, target).unwrap_or_else(|e| panic!("{name}: {e}"));
    let program = &*resolved.program;
    let callgraph = CallGraph::build_from(program, &[resolved.root], Algorithm::Rta);
    let mut widest = 0;
    for k in KS {
        let table = enumerate_jobs(
            program,
            &callgraph,
            resolved.designated,
            ContextConfig { k },
            1,
        );
        let expected = reference(program, &callgraph, resolved.designated, k);
        for i in 0..program.allocs().len() {
            let site = AllocSite::from_index(i);
            let all = expected.get(&site).cloned().unwrap_or_default();
            let count = table.count_of(program, site);
            assert_eq!(count, all.len(), "{name}: k={k} {site}");
            let sample = table.sample(program, site);
            if all.len() <= CONTEXT_SAMPLE {
                assert_eq!(sample, all.into_iter().collect::<Vec<_>>(), "{name}: k={k}");
            } else {
                assert_eq!(sample.len(), CONTEXT_SAMPLE, "{name}: k={k} {site}");
                assert!(sample.windows(2).all(|w| w[0] < w[1]), "{name}: k={k}");
                assert!(sample.iter().all(|c| all.contains(c)), "{name}: k={k}");
            }
            widest = widest.max(count);
        }
        let pairs: usize = expected.values().map(BTreeSet::len).sum();
        assert_eq!(table.pair_count(), pairs, "{name}: k={k}");
    }
    widest
}

fn assert_loop_counts_match(name: &str, source: &str) -> usize {
    let unit = compile(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_counts_match(
        name,
        &unit.program,
        CheckTarget::Loop(unit.checked_loops[0]),
    )
}

/// The fan-out family: `C1.f` .. `Cn.f`, where each `Ci.f` allocates a
/// `C(i+1)` and calls its `f` `k` times, the leaf stores a fresh `Item`
/// into `h.slot`, and the loop body calls `C1.f` `r` times.
fn fan_out(k: usize, n: usize, r: usize) -> String {
    let mut src = String::from("class Item { }\nclass Holder { Item slot; }\n");
    for i in 1..n {
        src += &format!(
            "class C{i} {{\n  void f(Holder h) {{\n    C{j} c = new C{j}();\n{}  }}\n}}\n",
            "    c.f(h);\n".repeat(k),
            j = i + 1
        );
    }
    src += &format!(
        "class C{n} {{\n  void f(Holder h) {{\n    Item it = new Item();\n    h.slot = it;\n  }}\n}}\n"
    );
    src += &format!(
        "class Main {{\n  static void main() {{\n    Holder h = new Holder();\n    C1 c = new C1();\n    \
         @check while (nondet()) {{\n{}    }}\n  }}\n}}\n",
        "      c.f(h);\n".repeat(r)
    );
    src
}

/// `(LO, contexts of the Item site)` from the count alone.
fn fan_out_counts(k: usize, n: usize, r: usize) -> (usize, usize) {
    let unit = compile(&fan_out(k, n, r)).unwrap();
    let program = &unit.program;
    let callgraph = CallGraph::build_from(program, &[program.entry().unwrap()], Algorithm::Rta);
    let table = enumerate_jobs(
        program,
        &callgraph,
        unit.checked_loops[0],
        ContextConfig::default(),
        1,
    );
    let item = (0..program.allocs().len())
        .map(AllocSite::from_index)
        .find(|&s| program.alloc(s).describe == "new Item")
        .unwrap();
    (table.pair_count(), table.count_of(program, item))
}

#[test]
fn count_matches_enumeration_on_the_corpus_and_table1() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 12);
    for path in paths {
        let source = std::fs::read_to_string(&path).unwrap();
        let widest = assert_loop_counts_match(&path.display().to_string(), &source);
        assert_eq!(widest, 1, "{}", path.display());
    }
    for subject in all_subjects() {
        let unit = subject.compile();
        let widest = assert_counts_match(subject.name, &unit.program, subject.target(&unit));
        assert!(widest <= CONTEXT_SAMPLE, "{}: {widest}", subject.name);
    }
}

#[test]
fn count_matches_enumeration_on_fuzz_programs() {
    for seed in 0..300 {
        let widest = assert_loop_counts_match(&format!("fuzz {seed}"), &generate_fuzz(seed).source);
        assert_eq!(widest, 1, "fuzz seed {seed}");
    }
}

#[test]
fn count_matches_enumeration_on_large_programs() {
    let target_statements = if cfg!(debug_assertions) {
        20_000
    } else {
        100_000
    };
    for seed in 0..3 {
        let source = generate_large(LargeConfig {
            target_statements,
            seed,
            ..LargeConfig::default()
        })
        .source;
        let widest = assert_loop_counts_match(&format!("large {seed}"), &source);
        assert_eq!(widest, 1, "large seed {seed}");
    }
}

#[test]
fn count_matches_enumeration_on_small_fan_outs() {
    // Sites with more contexts than the sample, k-limited call strings
    // (n > 8) and multiple loop-body calls.
    for (k, n, r) in [(2, 12, 1), (3, 5, 2), (8, 3, 2), (2, 10, 3), (1, 12, 2)] {
        assert_loop_counts_match(&format!("fan-out k={k} n={n} r={r}"), &fan_out(k, n, r));
    }
}

#[test]
fn fan_out_counts_are_closed_form() {
    for k in 2usize..=8 {
        for n in 1u32..=8 {
            for r in 1..=3 {
                let lo = r * (k.pow(n) - 1) / (k - 1);
                let ls = r * k.pow(n - 1);
                assert_eq!(
                    fan_out_counts(k, n as usize, r),
                    (lo, ls),
                    "k={k} n={n} r={r}"
                );
            }
        }
    }
    // Paths longer than the k = 8 limit: the 8 deepest methods' sites
    // each keep 2^8 truncated contexts.
    assert_eq!(fan_out_counts(2, 12, 1), (1_279, 256));
}

/// k = 8, n = 7, r = 2 is 599,186 loop objects and 524,288 leaking
/// ones. Its effects phase still costs `k^n` call transfers, about 16 s
/// per check unoptimised, so debug builds check n = 5 instead
/// (9,362 / 8,192) and `scripts/ci.sh` checks n = 7 through `leakc`.
#[test]
fn wide_fan_out_reports_are_exact_bounded_and_width_independent() {
    let n: u32 = if cfg!(debug_assertions) { 5 } else { 7 };
    let unit = compile(&fan_out(8, n as usize, 2)).unwrap();
    let run = |jobs: usize| {
        let config = DetectorConfig {
            jobs,
            ..DetectorConfig::default()
        };
        let result = check(
            &unit.program,
            CheckTarget::Loop(unit.checked_loops[0]),
            config,
        )
        .unwrap();
        let text = render_all(&result.program, &result.reports);
        (result.stats.loop_objects, result.stats.leaking_sites, text)
    };
    let (lo, ls, text) = run(1);
    let expected = (2 * (8usize.pow(n) - 1) / 7, 2 * 8usize.pow(n - 1));
    assert_eq!((lo, ls), expected);
    assert!(text.len() < 4096, "{} bytes", text.len());
    assert_eq!(
        text.matches("  context: ").count(),
        CONTEXT_SAMPLE,
        "{text}"
    );
    assert!(
        text.ends_with(&format!("  contexts: {ls} (16 shown)\n")),
        "{text}"
    );
    for jobs in [2, 8] {
        assert_eq!(run(jobs), (lo, ls, text.clone()), "jobs={jobs}");
    }
}
