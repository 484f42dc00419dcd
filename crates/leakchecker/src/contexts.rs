//! Context-sensitive allocation-site counting.
//!
//! Table 1 of the paper counts *context-sensitive allocation sites*: an
//! allocation site paired with the calling context (call string from the
//! designated loop's body) under which it executes. The SPECjbb case
//! study leans on this — one `longBTreeNode` site appears under 15
//! calling contexts, and the top call sites of those contexts identify
//! which transaction types are implicated.
//!
//! A context is the last `k` calls of a call path from the loop body, so
//! the contexts are counted, not built: a method's count is
//! `Σ_{j<k} F_j + G_k`, where `F_j` counts the length-`j` call strings
//! that start at a loop-body call (whole paths) and `G_j` those that
//! start at any call in the body or in a reached method (truncated
//! ones), each the sum of layer `j - 1` over the method's callers.

use leakchecker_callgraph::CallGraph;
use leakchecker_ir::ids::{AllocSite, CallSite, LoopId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::visit::{find_loop, walk_stmts};
use leakchecker_ir::Program;
use leakchecker_pointsto::Context;

/// Most contexts a report lists; a site with more also states its count.
pub const CONTEXT_SAMPLE: usize = 16;

/// Counting limits.
#[derive(Copy, Clone, Debug)]
pub struct ContextConfig {
    /// Call-string depth limit.
    pub k: usize,
}

impl Default for ContextConfig {
    fn default() -> Self {
        ContextConfig { k: 8 }
    }
}

/// The context counts of one loop, by method index.
#[derive(Clone, Debug, Default)]
pub struct ContextTable {
    k: usize,
    /// `(callee, call, caller)` for each call in the loop body or in a
    /// method it reaches, sorted. A body call's caller is the loop's
    /// method.
    edges: Vec<(usize, CallSite, usize)>,
    /// Contexts per method (with k = 0, 1 for each reached method).
    counts: Vec<usize>,
    /// `live[(j - 1) * counts.len() + m]` has bit 0 set when `F_j` of
    /// method `m` is nonzero and bit 1 when `G_j` is.
    live: Vec<u8>,
    /// Allocation sites and calls lexically inside the loop body, sorted.
    lexical: Vec<AllocSite>,
    body_calls: Vec<CallSite>,
    pairs: usize,
}

impl ContextTable {
    /// Total number of (site, context) pairs — the `LO` column.
    pub fn pair_count(&self) -> usize {
        self.pairs
    }

    /// Number of contexts of one site.
    pub fn count_of(&self, program: &Program, site: AllocSite) -> usize {
        let method = program.alloc(site).method.index();
        let reached = self.counts.get(method).copied().unwrap_or(0);
        let lexical = usize::from(self.lexical.binary_search(&site).is_ok());
        if self.k == 0 {
            // Every context is the empty one.
            (reached + lexical).min(1)
        } else {
            reached.saturating_add(lexical)
        }
    }

    /// Up to [`CONTEXT_SAMPLE`] contexts of one site in [`Context`]
    /// order: all of them when it has no more, else the first ones a
    /// backward walk over callers finds.
    pub fn sample(&self, program: &Program, site: AllocSite) -> Vec<Context> {
        let mut out = Vec::new();
        if self.k == 0 || self.lexical.binary_search(&site).is_ok() {
            out.extend((self.count_of(program, site) > 0).then(Context::empty));
        }
        let method = program.alloc(site).method.index();
        for len in 1..=self.k {
            self.walk(method, len, usize::from(len == self.k), &[], &mut out);
        }
        out.sort();
        out
    }

    /// Pushes onto `out`, until the sample is full, the contexts made of
    /// `len` more calls into method `to` followed by `tail`: whole paths
    /// (`F`, `kind` 0) or truncated ones (`G`, `kind` 1). Only callers
    /// with a nonzero count are followed, so every branch ends in one.
    fn walk(&self, to: usize, len: usize, kind: usize, tail: &[CallSite], out: &mut Vec<Context>) {
        let first = self.edges.partition_point(|e| e.0 < to);
        for &(_, site, from) in self.edges[first..].iter().take_while(|e| e.0 == to) {
            if out.len() == CONTEXT_SAMPLE {
                return;
            }
            if len == 1 && (kind == 1 || self.body_calls.binary_search(&site).is_ok()) {
                let frames = std::iter::once(site).chain(tail.iter().copied());
                out.push(frames.fold(Context::empty(), |ctx, cs| ctx.push(cs, self.k)));
            } else if len > 1 && self.live[(len - 2) * self.counts.len() + from] >> kind & 1 == 1 {
                self.walk(from, len - 1, kind, &[&[site][..], tail].concat(), out);
            }
        }
    }
}

/// Counts the context-sensitive allocation sites executed under
/// `designated` (lexically in its body, or in methods transitively called
/// from it, with k-limited call strings rooted at the loop body), in
/// O(k · call edges). `jobs` is unused: the count is one sequential
/// pass; the parameter stays for callers that pass it to every phase.
pub fn enumerate_jobs(
    program: &Program,
    callgraph: &CallGraph,
    designated: LoopId,
    config: ContextConfig,
    _jobs: usize,
) -> ContextTable {
    let loop_method = program.loop_info(designated).method;
    let Some(body) = find_loop(&program.method(loop_method).body, designated) else {
        return ContextTable::default();
    };
    let mut lexical = Vec::new();
    let mut body_calls = Vec::new();
    walk_stmts(body, &mut |stmt| match stmt {
        Stmt::New { site, .. } | Stmt::NewArray { site, .. } => lexical.push(*site),
        Stmt::Call { site, .. } => body_calls.push(*site),
        _ => {}
    });
    lexical.sort_unstable();
    body_calls.sort_unstable();
    // Calls by method, from the flat call table (ids are mostly in
    // method order already, which the stable sort keeps cheap).
    let mut calls: Vec<CallSite> = (0..program.calls().len())
        .map(CallSite::from_index)
        .collect();
    calls.sort_by_key(|&c| program.call(c).method);

    // The methods the body reaches, and every call into them.
    let methods = program.methods().len();
    let mut reached = vec![false; methods];
    let mut edges = Vec::new();
    let mut pending: Vec<_> = body_calls
        .iter()
        .map(|&site| (site, loop_method.index()))
        .collect();
    while let Some((site, from)) = pending.pop() {
        for &target in callgraph.targets(site) {
            if !std::mem::replace(&mut reached[target.index()], true) {
                let first = calls.partition_point(|&c| program.call(c).method < target);
                let own = calls[first..]
                    .iter()
                    .take_while(|&&c| program.call(c).method == target);
                pending.extend(own.map(|&c| (c, target.index())));
            }
            edges.push((target.index(), site, from));
        }
    }
    edges.sort_unstable();
    // A reached loop method brings its body's calls round a second time.
    edges.dedup();

    // One layer at a time: layer `j` sums layer `j - 1` over callers.
    let mut counts: Vec<usize> = reached
        .iter()
        .map(|&r| usize::from(r && config.k == 0))
        .collect();
    let mut live = Vec::new();
    let mut prev = vec![[0usize; 2]; methods];
    for len in 1..=config.k {
        let mut layer = vec![[0usize; 2]; methods];
        for &(to, site, from) in &edges {
            let [f, g] = match len {
                1 => [usize::from(body_calls.binary_search(&site).is_ok()), 1],
                _ => prev[from],
            };
            layer[to] = [
                layer[to][0].saturating_add(f),
                layer[to][1].saturating_add(g),
            ];
        }
        for (count, &[f, g]) in counts.iter_mut().zip(&layer) {
            *count = count.saturating_add(if len < config.k { f } else { g });
        }
        live.extend(
            layer
                .iter()
                .map(|&[f, g]| u8::from(f > 0) | u8::from(g > 0) << 1),
        );
        prev = layer;
    }
    let mut table = ContextTable {
        k: config.k,
        edges,
        counts,
        live,
        lexical,
        body_calls,
        pairs: 0,
    };
    table.pairs = (0..program.allocs().len())
        .map(|i| table.count_of(program, AllocSite::from_index(i)))
        .fold(0, usize::saturating_add);
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_callgraph::Algorithm;
    use leakchecker_frontend::compile;

    fn enumerate_src(src: &str) -> (leakchecker_ir::Program, ContextTable) {
        let unit = compile(src).unwrap();
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let table = enumerate_jobs(
            &unit.program,
            &cg,
            unit.checked_loops[0],
            ContextConfig::default(),
            1,
        );
        (unit.program, table)
    }

    fn site_of(p: &leakchecker_ir::Program, describe: &str) -> AllocSite {
        p.allocs()
            .iter()
            .enumerate()
            .find(|(_, a)| a.describe == describe)
            .map(|(i, _)| AllocSite::from_index(i))
            .unwrap()
    }

    #[test]
    fn lexically_inside_sites_have_empty_context() {
        let (p, table) = enumerate_src(
            "class Item { }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item it = new Item();
                 }
               }
             }",
        );
        let site = site_of(&p, "new Item");
        assert_eq!(table.count_of(&p, site), 1);
        assert_eq!(table.pair_count(), 1);
    }

    #[test]
    fn one_site_many_contexts() {
        // make() is called from two loop-body call sites: the Item site
        // is counted once per context (the SPECjbb pattern).
        let (p, table) = enumerate_src(
            "class Item { }
             class Factory {
               static Item make() { Item it = new Item(); return it; }
             }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item a = Factory.make();
                   Item b = Factory.make();
                 }
               }
             }",
        );
        let site = site_of(&p, "new Item");
        assert_eq!(table.count_of(&p, site), 2);
    }

    #[test]
    fn deep_chains_accumulate_frames() {
        let (p, table) = enumerate_src(
            "class Item { }
             class A { static Item deep() { return B.deeper(); } }
             class B { static Item deeper() { Item it = new Item(); return it; } }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item x = A.deep();
                 }
               }
             }",
        );
        let site = site_of(&p, "new Item");
        let ctxs = table.sample(&p, site);
        assert_eq!(ctxs.len(), 1);
        assert_eq!(ctxs[0].len(), 2, "two frames: deep > deeper");
    }

    #[test]
    fn sites_outside_loop_are_not_counted() {
        let (p, table) = enumerate_src(
            "class Item { }
             class Main {
               static void main() {
                 Item outside = new Item();
                 @check while (nondet()) {
                   Item inside = new Item();
                 }
               }
             }",
        );
        assert_eq!(table.pair_count(), 1);
        let _ = p;
    }

    #[test]
    fn virtual_dispatch_fans_out() {
        let (p, table) = enumerate_src(
            "class Item { }
             class Handler { Item handle() { Item d = new Item(); return d; } }
             class Special extends Handler {
               Item handle() { Item s = new Item(); return s; }
             }
             class Main {
               static void main() {
                 Handler h = new Handler();
                 Handler s = new Special();
                 Handler cur = h;
                 if (nondet()) { cur = s; }
                 @check while (nondet()) {
                   Item it = cur.handle();
                 }
               }
             }",
        );
        // Both overrides' sites get a context.
        assert!(table.pair_count() >= 2, "{table:?}");
        let _ = p;
    }
}
