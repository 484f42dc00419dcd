//! Leak witnesses: replayable escape chains and query derivation traces.
//!
//! A bare `(site, context)` report forces a from-scratch code read per
//! triage. This module makes every report carry its evidence:
//!
//! * an [`EscapeChain`] per redundant edge — the hop-by-hop path
//!   `o --f--> ... --g--> b` through which instances of the reported
//!   site are saved into the outside object, mirrored deterministically
//!   from the flows-out closure (never from thread interleaving), with
//!   each hop anchored to a concrete store statement;
//! * a [`QueryTrace`] per governed refinement query — phase, ticket
//!   spend, outcome, and the provenance edges the demand CFL engine
//!   traversed ([`leakchecker_pointsto::SiteWitness`]), streamed as one
//!   JSONL event per query under `leakc check --trace`.
//!
//! Recording costs nothing when disabled: the demand engine's sink is an
//! `Option` checked once per edge push, and chain derivation only runs
//! for sites that are already being reported.

use crate::flows::{FlowRelations, OutsideEdge};
use crate::report::json_escape;
use leakchecker_effects::{EffectSummary, TypeKey};
use leakchecker_ir::ids::{AllocSite, FieldId, MethodId};
use leakchecker_ir::stmt::Stmt;
use leakchecker_ir::visit::walk_stmts;
use leakchecker_ir::Program;
use leakchecker_pointsto::{Node, SiteWitness, WitnessKind};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A source anchor for one escape hop: the store statement that (first,
/// in deterministic program order) writes the hop's field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmtAnchor {
    /// Global statement ordinal (methods in id order, statements in
    /// source walk order) — stable across runs of the same program.
    pub id: u32,
    /// Qualified name of the method containing the statement.
    pub method: String,
    /// The statement in surface syntax.
    pub text: String,
}

/// The base object one hop stores into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HopBase {
    /// An inside (loop-allocated) container; the chain continues from it.
    Inside(AllocSite),
    /// The outside base the chain terminates at (`None` encodes `⊤`).
    Outside(Option<TypeKey>),
}

/// One hop of an escape chain: `value` is stored into `base.field`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainHop {
    /// The inside site being stored.
    pub value: AllocSite,
    /// The field written.
    pub field: FieldId,
    /// The object written into.
    pub base: HopBase,
    /// `true` when the justifying store executes inside library code.
    pub in_library: bool,
    /// The anchoring store statement, when one exists in the program
    /// text (statics are modeled as copy edges and may have none).
    pub stmt: Option<StmtAnchor>,
}

/// A replayable escape chain for one `(site, redundant edge)` pair.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EscapeChain {
    /// The reported site.
    pub site: AllocSite,
    /// The flows-out edge this chain explains.
    pub edge: OutsideEdge,
    /// Hops from the site to the outside base, in store order.
    pub hops: Vec<ChainHop>,
    /// `false` when derivation could not reconstruct the full path to
    /// the outside base (the hops are the partial witness we have).
    pub complete: bool,
    /// `true` when a matching flows-in exists for this edge (the site
    /// was reported for its ERA, not for this edge being redundant).
    pub matched_in: bool,
}

/// Deterministic statement ordinals and per-field store-statement
/// anchors over one program.
pub struct StmtIndex {
    stores_by_field: BTreeMap<FieldId, Vec<StmtAnchor>>,
    anchor_library: BTreeMap<(FieldId, u32), bool>,
}

impl StmtIndex {
    /// Walks the whole program (methods in id order, statements in
    /// source order) assigning global ordinals and indexing every store
    /// statement by the field it writes.
    pub fn build(program: &Program) -> StmtIndex {
        let mut index = StmtIndex {
            stores_by_field: BTreeMap::new(),
            anchor_library: BTreeMap::new(),
        };
        let mut ordinal: u32 = 0;
        for m in 0..program.methods().len() {
            let method = MethodId::from_index(m);
            let in_library = program.is_library_method(method);
            walk_stmts(&program.method(method).body, &mut |stmt| {
                let field = match stmt {
                    Stmt::Store { field, .. } | Stmt::StaticStore { field, .. } => Some(*field),
                    Stmt::ArrayStore { .. } => Some(leakchecker_ir::ids::ARRAY_ELEM_FIELD),
                    _ => None,
                };
                if let Some(field) = field {
                    let anchor = StmtAnchor {
                        id: ordinal,
                        method: program.qualified_name(method),
                        text: leakchecker_ir::pretty::stmt_str(program, method, stmt),
                    };
                    index.anchor_library.insert((field, ordinal), in_library);
                    index.stores_by_field.entry(field).or_default().push(anchor);
                }
                ordinal += 1;
            });
        }
        index
    }

    /// The anchoring store statement for a hop: the first store of the
    /// field whose library-ness matches the hop, else the first store of
    /// the field at all.
    pub fn anchor(&self, field: FieldId, in_library: bool) -> Option<StmtAnchor> {
        let anchors = self.stores_by_field.get(&field)?;
        anchors
            .iter()
            .find(|a| self.anchor_library.get(&(field, a.id)) == Some(&in_library))
            .or_else(|| anchors.first())
            .cloned()
    }
}

/// Derives the escape chain for one `(site, edge)` pair by mirroring the
/// flows-out closure over the (ordered) abstract store effects: a hop is
/// either the terminal store into the edge's outside base or a store
/// into an inside container whose own flows-out carries the edge.
///
/// The derivation is a pure function of the effect summary and the flow
/// relations — both `BTreeSet`/`BTreeMap`-ordered — so the chain is
/// byte-identical at any worker count.
pub fn escape_chain(
    program: &Program,
    summary: &EffectSummary,
    flows: &FlowRelations,
    stmts: &StmtIndex,
    site: AllocSite,
    edge: &OutsideEdge,
) -> EscapeChain {
    let _ = program;
    let mut visited: BTreeSet<AllocSite> = BTreeSet::from([site]);
    let mut hops = Vec::new();
    let mut complete = false;
    let mut cur = site;
    loop {
        // Terminal hop: a direct inside-loop store of `cur` into the
        // edge's outside base through the edge's field.
        let terminal = summary.stores.iter().find(|e| {
            e.inside_loop
                && e.value.key == TypeKey::Site(cur)
                && e.field == edge.field
                && e.base.key() == edge.base
                && flows
                    .flows_out
                    .get(&cur)
                    .is_some_and(|edges| edges.contains(edge))
        });
        if let Some(e) = terminal {
            hops.push(ChainHop {
                value: cur,
                field: e.field,
                base: HopBase::Outside(e.base.key()),
                in_library: e.in_library,
                stmt: stmts.anchor(e.field, e.in_library),
            });
            complete = true;
            break;
        }
        // Intermediate hop: `cur` is stored into an inside container
        // that itself escapes through the edge.
        let step = summary.stores.iter().find_map(|e| {
            if !e.inside_loop || e.value.key != TypeKey::Site(cur) {
                return None;
            }
            let Some(TypeKey::Site(container)) = e.base.key() else {
                return None;
            };
            if visited.contains(&container)
                || !summary.inside_sites.contains(&container)
                || !flows
                    .flows_out
                    .get(&container)
                    .is_some_and(|edges| edges.contains(edge))
            {
                return None;
            }
            Some((e.field, container, e.in_library))
        });
        let Some((field, container, in_library)) = step else {
            break;
        };
        visited.insert(container);
        hops.push(ChainHop {
            value: cur,
            field,
            base: HopBase::Inside(container),
            in_library,
            stmt: stmts.anchor(field, in_library),
        });
        cur = container;
    }
    let in_out = flows
        .flows_out
        .get(&site)
        .is_some_and(|edges| edges.contains(edge));
    let matched_in = in_out && !flows.unmatched_edges(site).any(|e| e == edge);
    EscapeChain {
        site,
        edge: edge.clone(),
        hops,
        complete,
        matched_in,
    }
}

/// A human-readable label for one PAG node.
pub fn node_label(program: &Program, node: Node) -> String {
    match node {
        Node::Local(m, l) => format!(
            "{}.{}",
            program.qualified_name(m),
            program.method(m).locals[l.index()].name
        ),
        Node::Ret(m) => format!("{}.<ret>", program.qualified_name(m)),
        Node::Static(f) => program.field_name(f),
    }
}

/// Renders one provenance hop of a demand-query witness.
pub fn witness_step_label(program: &Program, step: &leakchecker_pointsto::WitnessStep) -> String {
    let kind = match &step.kind {
        WitnessKind::Assign => "assign".to_string(),
        WitnessKind::ParamBind(cs) => format!("param@{cs}"),
        WitnessKind::ReturnBind(cs) => format!("return@{cs}"),
        WitnessKind::StaticErase => "static".to_string(),
        WitnessKind::HeapMatch(f) => format!("load[{}]", program.field(*f).name),
    };
    let boundary = if step.crosses_library {
        " [library-boundary]"
    } else {
        ""
    };
    format!(
        "{} --{kind}--> {}{boundary}",
        node_label(program, step.from),
        node_label(program, step.to)
    )
}

/// One structured trace event: a governed refinement query, its spend,
/// its outcome, and the provenance edges it traversed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryTrace {
    /// Pipeline phase that issued the query (currently `"refine"`).
    pub phase: String,
    /// The candidate site the query refines (e.g. `"alloc#3"`).
    pub site: String,
    /// The queried PAG node (a store source), human-labeled.
    pub query: String,
    /// Step budget of the final attempt.
    pub budget: usize,
    /// Worklist steps spent across all attempts.
    pub steps: u64,
    /// `"complete"`, `"fallback"`, or `"interrupted"`.
    pub outcome: String,
    /// Rendered provenance edges ([`witness_step_label`]), one chain per
    /// abstract object, chains separated in recording order.
    pub edges: Vec<String>,
}

impl QueryTrace {
    /// One JSONL event.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"phase\": \"{}\", \"site\": \"{}\", \"query\": \"{}\", \"budget\": {}, \"steps\": {}, \"outcome\": \"{}\", \"edges\": [",
            json_escape(&self.phase),
            json_escape(&self.site),
            json_escape(&self.query),
            self.budget,
            self.steps,
            json_escape(&self.outcome),
        );
        for (i, edge) in self.edges.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\"", json_escape(edge));
        }
        out.push_str("]}");
        out
    }
}

/// Renders the witness edge list of one demand-query answer.
pub fn witness_edges(program: &Program, witnesses: &[SiteWitness]) -> Vec<String> {
    let mut edges = Vec::new();
    for w in witnesses {
        for step in &w.steps {
            edges.push(witness_step_label(program, step));
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_callgraph::{Algorithm, CallGraph};
    use leakchecker_effects::{analyze, EffectConfig};
    use leakchecker_frontend::compile;

    fn pipeline(src: &str) -> (Program, EffectSummary, FlowRelations) {
        let unit = compile(src).unwrap();
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let summary = analyze(
            &unit.program,
            &cg,
            unit.checked_loops[0],
            EffectConfig::default(),
        );
        let flows = crate::flows::build(
            &unit.program,
            &summary,
            crate::flows::FlowConfig::default(),
            1,
        );
        (unit.program, summary, flows)
    }

    fn site_of(p: &Program, describe: &str) -> AllocSite {
        p.allocs()
            .iter()
            .enumerate()
            .find(|(_, a)| a.describe == describe)
            .map(|(i, _)| AllocSite::from_index(i))
            .unwrap()
    }

    #[test]
    fn direct_escape_yields_a_one_hop_anchored_chain() {
        let (program, summary, flows) = pipeline(
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
        );
        let item = site_of(&program, "new Item");
        let stmts = StmtIndex::build(&program);
        let edge = flows.unmatched_edges(item).next().unwrap().clone();
        let chain = escape_chain(&program, &summary, &flows, &stmts, item, &edge);
        assert!(chain.complete, "{chain:?}");
        assert!(!chain.matched_in);
        assert_eq!(chain.hops.len(), 1);
        let hop = &chain.hops[0];
        assert_eq!(hop.value, item);
        assert!(matches!(hop.base, HopBase::Outside(_)));
        let anchor = hop.stmt.as_ref().expect("store statement anchor");
        assert_eq!(anchor.method, "Main.main");
        assert!(anchor.text.contains("h.item = it"), "{anchor:?}");
    }

    #[test]
    fn transitive_escape_lists_every_hop_in_order() {
        let (program, summary, flows) = pipeline(
            "class Item { }
             class Node { Item item; }
             class Holder { Node node; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Node n = new Node();
                   Item it = new Item();
                   n.item = it;
                   h.node = n;
                 }
               }
             }",
        );
        let item = site_of(&program, "new Item");
        let node = site_of(&program, "new Node");
        let stmts = StmtIndex::build(&program);
        let edge = flows.unmatched_edges(item).next().unwrap().clone();
        let chain = escape_chain(&program, &summary, &flows, &stmts, item, &edge);
        assert!(chain.complete, "{chain:?}");
        assert_eq!(chain.hops.len(), 2, "{chain:?}");
        assert_eq!(chain.hops[0].value, item);
        assert_eq!(chain.hops[0].base, HopBase::Inside(node));
        assert_eq!(chain.hops[1].value, node);
        assert!(matches!(chain.hops[1].base, HopBase::Outside(_)));
    }

    #[test]
    fn chains_are_deterministic() {
        let src = "class Item { }
             class Node { Item item; }
             class Holder { Node node; Item direct; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Node n = new Node();
                   Item it = new Item();
                   n.item = it;
                   h.direct = it;
                   h.node = n;
                 }
               }
             }";
        let (program, summary, flows) = pipeline(src);
        let item = site_of(&program, "new Item");
        let stmts = StmtIndex::build(&program);
        let chains: Vec<Vec<EscapeChain>> = (0..3)
            .map(|_| {
                flows
                    .unmatched_edges(item)
                    .map(|e| escape_chain(&program, &summary, &flows, &stmts, item, e))
                    .collect()
            })
            .collect();
        assert!(!chains[0].is_empty());
        assert_eq!(chains[0], chains[1]);
        assert_eq!(chains[1], chains[2]);
    }

    #[test]
    fn trace_events_render_as_parseable_jsonl() {
        let trace = QueryTrace {
            phase: "refine".to_string(),
            site: "alloc#3".to_string(),
            query: "Main.main.it".to_string(),
            budget: 100_000,
            steps: 42,
            outcome: "complete".to_string(),
            edges: vec!["a --assign--> b".to_string()],
        };
        let json = trace.to_json();
        assert!(json.starts_with("{\"phase\": \"refine\""), "{json}");
        assert!(json.contains("\"steps\": 42"), "{json}");
        assert!(json.contains("\"edges\": [\"a --assign--> b\"]"), "{json}");
        assert!(!json.contains('\n'));
    }

    #[test]
    fn stmt_index_ordinals_are_stable_and_anchors_prefer_matching_library() {
        let (program, _, _) = pipeline(
            "library class Bucket {
               Item slot;
               void put(Item it) { this.slot = it; }
             }
             class Item { }
             class Main {
               static void main() {
                 Bucket b = new Bucket();
                 @check while (nondet()) {
                   Item it = new Item();
                   b.put(it);
                 }
               }
             }",
        );
        let a = StmtIndex::build(&program);
        let b = StmtIndex::build(&program);
        let field = program
            .fields()
            .iter()
            .position(|f| f.name == "slot")
            .map(FieldId::from_index)
            .unwrap();
        let lib = a.anchor(field, true).expect("library store exists");
        assert!(lib.text.contains("this.slot = it"), "{lib:?}");
        assert_eq!(a.anchor(field, true), b.anchor(field, true));
        assert_eq!(
            a.anchor(field, false),
            Some(lib),
            "no app store of the field: falls back to the first"
        );
    }
}
