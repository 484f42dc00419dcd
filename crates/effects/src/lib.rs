//! The type-and-effect system of the LeakChecker reproduction.
//!
//! This crate implements the formal core of the paper (Section 3): an
//! abstract interpretation over the structured IR that computes, for each
//! allocation site and a developer-designated loop,
//!
//! * an **extended recency abstraction** (ERA) value — see [`era::Era`];
//! * the **abstract heap effects**: the store set Ψ̃ and the load set Ω̃,
//!   from which the detector derives the transitive flows-out and
//!   flows-in relations.
//!
//! The implementation generalizes the formal single-site-or-`⊤` value
//! domain to a bounded set domain (configurable via
//! [`EffectConfig::type_set_bound`]; bound 1 recovers the formal system)
//! and handles method calls by bounded inlining over the call graph — the
//! paper's implementation delegates interprocedural reasoning to
//! CFL-reachability, which the `leakchecker` crate layers on top.
//!
//! # Example
//!
//! The canonical leak pattern — each iteration stores a fresh object into
//! a field of an outside object that is never read again:
//!
//! ```
//! use leakchecker_frontend::compile;
//! use leakchecker_callgraph::{Algorithm, CallGraph};
//! use leakchecker_effects::{analyze, EffectConfig, Era};
//!
//! let unit = compile(r#"
//!     class Item { }
//!     class Holder { Item item; }
//!     class Main {
//!         static void main() {
//!             Holder h = new Holder();
//!             @check while (nondet()) {
//!                 Item it = new Item();
//!                 h.item = it;
//!             }
//!         }
//!     }
//! "#).unwrap();
//! let cg = CallGraph::build(&unit.program, Algorithm::Rta);
//! let summary = analyze(&unit.program, &cg, unit.checked_loops[0],
//!                       EffectConfig::default());
//! // The Item site escapes and never flows back: ERA ⊤̂.
//! let item_site = unit.program.allocs().iter().enumerate()
//!     .find(|(_, a)| a.describe == "new Item").map(|(i, _)| i).unwrap();
//! assert_eq!(summary.era(leakchecker_ir::AllocSite(item_site as u32)), Era::Top);
//! ```

pub mod analysis;
pub mod domain;
pub mod era;

pub use analysis::{analyze, analyze_from, EffectConfig, EffectSummary};
pub use domain::{AbsEffect, AbsType, EffectBase, TypeKey, Val};
pub use era::Era;

// Hidden re-exports for the lattice-law property suite (the algebraic
// preconditions the in-place branch join relies on). Not a stable API.
#[doc(hidden)]
pub use analysis::{age_env, age_heap_map, gen_of, join_env, Env, Gen, HeapKey};

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_callgraph::{Algorithm, CallGraph};
    use leakchecker_frontend::compile;
    use leakchecker_ir::ids::AllocSite;
    use leakchecker_ir::Program;

    struct Case {
        program: Program,
        summary: EffectSummary,
    }

    impl Case {
        fn new(src: &str) -> Case {
            Self::with_config(src, EffectConfig::default())
        }

        fn with_config(src: &str, config: EffectConfig) -> Case {
            let unit = compile(src).unwrap();
            let cg = CallGraph::build(&unit.program, Algorithm::Rta);
            assert_eq!(unit.checked_loops.len(), 1, "test needs one @check loop");
            let summary = analyze(&unit.program, &cg, unit.checked_loops[0], config);
            Case {
                program: unit.program,
                summary,
            }
        }

        /// Finds the allocation site by its `new <Class>` description.
        fn site(&self, describe: &str) -> AllocSite {
            let hits: Vec<AllocSite> = self
                .program
                .allocs()
                .iter()
                .enumerate()
                .filter(|(_, a)| a.describe == describe)
                .map(|(i, _)| AllocSite::from_index(i))
                .collect();
            assert_eq!(hits.len(), 1, "ambiguous or missing site {describe}");
            hits[0]
        }

        fn era_of(&self, describe: &str) -> Era {
            self.summary.era(self.site(describe))
        }
    }

    /// The worked example of Section 3.1: four sites with ERAs 0̂, ĉ, f̂, ⊤̂.
    ///
    /// `b` holds an outside object; each iteration allocates `c` (never
    /// escapes), `d` (escapes into `b.g`, loaded back unconditionally next
    /// iteration) and `e` (escapes into `d.h`, loaded back only on one
    /// branch).
    #[test]
    fn section_3_1_worked_example() {
        let case = Case::new(
            "class O1 { O3 g; }
             class O3 { O4 h; }
             class O4 { }
             class O2 { }
             class Main {
               static void main() {
                 O1 b = new O1();
                 @check while (nondet()) {
                   O2 c = new O2();
                   O3 d = new O3();
                   O4 e = new O4();
                   O3 m = b.g;
                   if (nondet()) {
                     if (m != null) {
                       O4 n = m.h;
                     }
                   }
                   if (nondet()) {
                     b.g = d;
                     d.h = e;
                   }
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new O1"), Era::Outside, "b is outside");
        assert_eq!(case.era_of("new O2"), Era::Current, "c is iteration-local");
        assert_eq!(case.era_of("new O3"), Era::Future, "d flows back via b.g");
        assert_eq!(
            case.era_of("new O4"),
            Era::Top,
            "e flows back only on one branch: joined to ⊤̂"
        );
    }

    #[test]
    fn canonical_leak_is_top() {
        let case = Case::new(
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
        assert_eq!(case.era_of("new Item"), Era::Top);
        assert_eq!(case.era_of("new Holder"), Era::Outside);
        // And the store effect into the outside holder was recorded.
        assert!(case
            .summary
            .stores
            .iter()
            .any(|e| e.inside_loop && e.base.era() == Era::Outside));
    }

    #[test]
    fn carried_over_object_is_future() {
        // display/process pattern: each iteration reads the previous
        // iteration's object before overwriting the field.
        let case = Case::new(
            "class Order { }
             class Tx { Order curr; }
             class Main {
               static void main() {
                 Tx t = new Tx();
                 @check while (nondet()) {
                   Order prev = t.curr;
                   Order o = new Order();
                   t.curr = o;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Order"), Era::Future);
    }

    #[test]
    fn iteration_local_structure_stays_current() {
        // An iteration-local container holding an iteration-local item:
        // the heap cell dies with its container, so nothing is ⊤̂.
        let case = Case::new(
            "class Item { }
             class Bag { Item item; }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Bag b = new Bag();
                   Item it = new Item();
                   b.item = it;
                   Item got = b.item;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Bag"), Era::Current);
        assert_eq!(case.era_of("new Item"), Era::Current);
    }

    #[test]
    fn escape_through_static_field_is_top() {
        let case = Case::new(
            "class Item { }
             class Registry { static Item last; }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item it = new Item();
                   Registry.last = it;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    #[test]
    fn static_field_read_back_is_future() {
        let case = Case::new(
            "class Item { }
             class Registry { static Item last; }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item prev = Registry.last;
                   Item it = new Item();
                   Registry.last = it;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Future);
    }

    #[test]
    fn interprocedural_escape_through_callee() {
        // The store into the outside object happens inside a callee.
        let case = Case::new(
            "class Item { }
             class Holder {
               Item item;
               void put(Item it) { this.item = it; }
             }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = new Item();
                   h.put(it);
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    #[test]
    fn interprocedural_allocation_in_callee() {
        // The allocation happens inside a callee called from the loop.
        let case = Case::new(
            "class Item { }
             class Factory {
               static Item make() { Item it = new Item(); return it; }
             }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item it = Factory.make();
                   h.item = it;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
        assert!(case.summary.inside_sites.contains(&case.site("new Item")));
    }

    #[test]
    fn transitive_escape_marks_members() {
        // item stored into node, node stored into outside holder:
        // both node and item escape and never flow back.
        let case = Case::new(
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
        assert_eq!(case.era_of("new Node"), Era::Top);
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    #[test]
    fn array_escape_is_tracked_via_elem() {
        let case = Case::new(
            "class Item { }
             class Main {
               static void main() {
                 Item[] store = new Item[64];
                 int i = 0;
                 @check while (nondet()) {
                   Item it = new Item();
                   store[i] = it;
                   i = i + 1;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    #[test]
    fn paper_domain_bound_one_collapses_to_top_type() {
        // With the formal bound-1 domain, a variable holding objects from
        // two sites becomes ⊤; the analysis stays sound (reports ⊤̂ for
        // both sites via the conservative ⊤-base store).
        let case = Case::with_config(
            "class A { }
             class Holder { A a; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   A x = new A();
                   A y = new A();
                   A pick = x;
                   if (nondet()) { pick = y; }
                   h.a = pick;
                 }
               }
             }",
            EffectConfig {
                type_set_bound: 1,
                ..EffectConfig::default()
            },
        );
        // Both A sites exist; under bound 1 the store records a ⊤ or
        // single-site base/value. The sites must not be classified ĉ
        // (they escape): allow f̂ or ⊤̂.
        for (i, a) in case.program.allocs().iter().enumerate() {
            if a.describe == "new A" {
                let era = case.summary.era(AllocSite::from_index(i));
                assert!(era == Era::Top || era == Era::Future, "era = {era}");
            }
        }
    }

    /// Pins the designated loop's convergence criterion (environment +
    /// heap + effect-log lengths — deliberately stricter than the plain
    /// loop's environment + heap; see `exec_plain_loop`'s docs). The
    /// exact round counts below encode that criterion: any change to
    /// what the fixpoint watches shows up as a different `rounds` value
    /// on one of these canonical subjects.
    #[test]
    fn designated_loop_round_counts_are_pinned() {
        // Canonical leak: round 1 discovers the store, round 2 ages it
        // to ⊤̂ (heap + effect log change), round 3 confirms stability.
        let leak = Case::new(
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
        assert_eq!(leak.summary.rounds, 3, "canonical leak");
        assert_eq!(leak.summary.regions, 0, "sequential path");

        // Carry-over: the flow-back refinement needs one aged round to
        // re-establish f̂, then one confirming round.
        let carry = Case::new(
            "class Order { }
             class Tx { Order curr; }
             class Main {
               static void main() {
                 Tx t = new Tx();
                 @check while (nondet()) {
                   Order prev = t.curr;
                   Order o = new Order();
                   t.curr = o;
                 }
               }
             }",
        );
        assert_eq!(carry.summary.rounds, 3, "carry-over");

        // Iteration-local body: nothing survives aging, so round 2
        // already confirms round 1's state.
        let local = Case::new(
            "class Item { }
             class Main {
               static void main() {
                 @check while (nondet()) {
                   Item it = new Item();
                 }
               }
             }",
        );
        assert_eq!(local.summary.rounds, 2, "iteration-local");
    }

    /// A plain (non-designated) loop nested in the designated one uses
    /// the looser env+heap criterion and no aging: it must neither bump
    /// the designated round counter nor trip truncation, however many
    /// effects its iterations append to the shared logs.
    #[test]
    fn nested_plain_loop_converges_without_designated_rounds() {
        let case = Case::new(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   while (nondet()) {
                     Item it = new Item();
                     h.item = it;
                   }
                 }
               }
             }",
        );
        assert!(!case.summary.truncated, "plain fixpoint must converge");
        assert_eq!(
            case.summary.rounds, 3,
            "rounds counts designated iterations only"
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    #[test]
    fn truncation_is_reported_for_recursion() {
        let case = Case::new(
            "class Main {
               static void spin(int n) { Main.spin(n - 1); }
               static void main() {
                 @check while (nondet()) {
                   Main.spin(3);
                 }
               }
             }",
        );
        assert!(case.summary.truncated);
    }

    #[test]
    fn effect_sets_distinguish_inside_and_outside() {
        let case = Case::new(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item setup = new Item();
                 h.item = setup;
                 @check while (nondet()) {
                   Item it = new Item();
                   h.item = it;
                 }
               }
             }",
        );
        assert!(case.summary.stores.iter().any(|e| !e.inside_loop));
        assert!(case.summary.stores.iter().any(|e| e.inside_loop));
    }

    /// A plain loop whose iteration changes a heap cell and changes it
    /// back — the flow-back load turns ⊤̂ into f̂, the store after it
    /// joins ⊤̂ in again — leaves the heap as it found it. The fixpoint
    /// must converge, as a whole-heap comparison sees it, instead of
    /// counting writes and spinning to the cap.
    #[test]
    fn plain_loop_cell_that_flips_back_converges() {
        let case = Case::new(
            "class Item { }
             class Holder { Item f; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item y = null;
                 @check while (nondet()) {
                   while (nondet()) {
                     Item a = h.f;
                     h.f = y;
                   }
                   y = new Item();
                 }
               }
             }",
        );
        assert!(!case.summary.truncated, "the flip-back is not a change");
        assert_eq!(case.summary.rounds, 4);
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    /// A designated loop nested in a plain loop rewrites the heap
    /// wholesale (aging every round); the enclosing plain loop must still
    /// see exactly the designated loop's net change, or it re-runs the
    /// designated fixpoint until the cap.
    #[test]
    fn designated_loop_inside_a_plain_loop_converges() {
        let case = Case::new(
            "class Item { }
             class Holder { Item f; Item g; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 while (nondet()) {
                   Item z = h.g;
                   @check while (nondet()) {
                     Item a = h.f;
                     Item it = new Item();
                     h.f = it;
                     h.g = a;
                   }
                 }
               }
             }",
        );
        assert!(!case.summary.truncated);
        assert_eq!(
            case.summary.rounds, 6,
            "two plain iterations of three rounds"
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    /// The in-place branch join must see writes nested in an inner `if`
    /// of either branch, and must restore the entry value of a local the
    /// then-branch overwrote before the else-branch runs.
    #[test]
    fn in_place_join_sees_nested_if_writes() {
        let case = Case::new(
            "class Item { }
             class Keep { }
             class Other { }
             class Holder { Item item; Keep keep; Other other; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item a = new Item();
                   Item b = null;
                   Keep k = new Keep();
                   Other o = new Other();
                   if (nondet()) {
                     if (nondet()) { b = a; }
                     if (nondet()) { k = null; } else { k = null; }
                     o = null;
                   } else {
                     h.other = o;
                   }
                   h.item = b;
                   h.keep = k;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top, "nested write joined");
        assert_eq!(case.era_of("new Keep"), Era::Top, "nested kill joined");
        assert_eq!(
            case.era_of("new Other"),
            Era::Top,
            "else saw the entry value"
        );
    }

    /// A plain loop, inside a branch or not, defines what its body
    /// defines at any depth, and joins that with its entry state.
    #[test]
    fn in_place_join_sees_plain_loop_writes() {
        let case = Case::new(
            "class Item { }
             class Keep { }
             class Holder { Item item; Keep keep; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item a = new Item();
                   Item b = null;
                   Keep k = new Keep();
                   if (nondet()) {
                     while (nondet()) { b = a; }
                   }
                   while (nondet()) {
                     if (nondet()) { k = null; } else { k = null; }
                   }
                   h.item = b;
                   h.keep = k;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
        assert_eq!(case.era_of("new Keep"), Era::Top, "entry state joined");
        assert!(!case.summary.truncated);
    }

    /// A call in a branch writes only its `dst` in the caller's frame.
    #[test]
    fn in_place_join_sees_call_dst() {
        let case = Case::new(
            "class Item { }
             class Factory {
               static Item make() { Item it = new Item(); return it; }
             }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item b = null;
                   if (nondet()) { b = Factory.make(); }
                   h.item = b;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top);
    }

    /// A value returned from only one branch, either one, reaches the
    /// caller.
    #[test]
    fn in_place_join_keeps_a_return_from_one_branch() {
        let case = Case::new(
            "class A { }
             class B { }
             class Holder { A a; B b; }
             class Main {
               static A first(A x) {
                 if (nondet()) { return x; }
                 A none = null;
                 return none;
               }
               static B second(B y) {
                 if (nondet()) { B none = null; } else { return y; }
                 B other = null;
                 return other;
               }
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   A a = new A();
                   B b = new B();
                   A ra = Main.first(a);
                   B rb = Main.second(b);
                   h.a = ra;
                   h.b = rb;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new A"), Era::Top, "then-branch return");
        assert_eq!(case.era_of("new B"), Era::Top, "else-branch return");
    }

    /// An `if` without `else` joins the then-state with the entry state.
    #[test]
    fn in_place_join_handles_an_else_less_if() {
        let case = Case::new(
            "class Item { }
             class Keep { }
             class Holder { Item item; Keep keep; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 @check while (nondet()) {
                   Item a = new Item();
                   Item b = null;
                   Keep k = new Keep();
                   if (nondet()) { b = a; k = null; }
                   h.item = b;
                   h.keep = k;
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Item"), Era::Top, "then-value joined");
        assert_eq!(case.era_of("new Keep"), Era::Top, "entry value joined");
    }

    /// A branch holding the designated loop takes the whole-frame path:
    /// the loop ages `y`, which no statement of either branch defines,
    /// and the else-branch must still store `y`'s entry value (era ĉ),
    /// never the aged one.
    #[test]
    fn designated_loop_inside_a_branch_keeps_the_else_frame() {
        let case = Case::new(
            "class Item { }
             class Holder { Item item; }
             class Main {
               static void main() {
                 Holder h = new Holder();
                 Item last = null;
                 while (nondet()) {
                   Item y = last;
                   if (nondet()) {
                     @check while (nondet()) {
                       Item it = new Item();
                       last = it;
                     }
                   } else {
                     h.item = y;
                   }
                 }
               }
             }",
        );
        assert_eq!(case.era_of("new Holder"), Era::Outside);
        assert_eq!(case.era_of("new Item"), Era::Top);
        let item = case.site("new Item");
        let stored: Vec<Era> = case
            .summary
            .stores
            .iter()
            .filter(|e| e.value.key == crate::TypeKey::Site(item))
            .map(|e| e.value.era)
            .collect();
        assert_eq!(stored, vec![Era::Current], "the else-branch store");
    }
}
