//! Lattice-law property battery for the effects domain.
//!
//! The effects fixpoint (see `crates/effects/src/analysis.rs`) runs
//! branches in place and joins only the locals a branch can define,
//! which equals the whole-frame `join_env` only because the join is
//! idempotent; it also ages the heap once per round and replays
//! flow-back heap rewrites. Each of those steps is only sound because
//! the underlying operators satisfy algebraic laws: the joins form a
//! semilattice, aging is monotone, and the flow-back refinement is an
//! idempotent rewrite that never leaves the escape chain. This suite
//! checks every law on SplitMix64-driven random values so a future
//! domain change that silently breaks one of these preconditions fails
//! here, with the seed printed in the assertion.

use leakchecker_benchsuite::SplitMix64;
use leakchecker_effects::{age_env, age_heap_map, gen_of, join_env, Env, Era, Gen, HeapKey};
use leakchecker_effects::{AbsType, TypeKey, Val};
use leakchecker_ir::ids::{AllocSite, FieldId};
use std::collections::BTreeMap;

const BOUND: usize = 4;
const ERAS: [Era; 4] = [Era::Outside, Era::Current, Era::Future, Era::Top];

fn random_era(rng: &mut SplitMix64) -> Era {
    ERAS[rng.gen_range(0, 4) as usize]
}

/// A random `Val`: `⊥` and `⊤` with some probability, else a type set
/// built by joining singletons (which keeps the representation
/// invariant: non-empty, deduplicated keys, size ≤ bound).
fn random_val(rng: &mut SplitMix64) -> Val {
    match rng.gen_range(0, 10) {
        0 => Val::Bottom,
        1 => Val::Top,
        _ => {
            let mut val = Val::Bottom;
            for _ in 0..rng.gen_range(1, 4) {
                let key = if rng.gen_range(0, 8) == 0 {
                    TypeKey::Globals
                } else {
                    TypeKey::Site(AllocSite(rng.gen_range(0, 6) as u32))
                };
                let ty = AbsType::new(key, random_era(rng));
                val = val.join(&Val::one(ty), BOUND);
            }
            val
        }
    }
}

fn random_env(rng: &mut SplitMix64, nlocals: usize) -> Env {
    Env {
        locals: (0..nlocals).map(|_| random_val(rng)).collect(),
        ret: random_val(rng),
    }
}

fn random_heap(rng: &mut SplitMix64) -> BTreeMap<HeapKey, Val> {
    let mut heap = BTreeMap::new();
    for _ in 0..rng.gen_range(0, 8) {
        let key = (
            TypeKey::Site(AllocSite(rng.gen_range(0, 4) as u32)),
            gen_of(random_era(rng)),
            FieldId(rng.gen_range(0, 3) as u32),
        );
        heap.insert(key, random_val(rng));
    }
    heap
}

/// `a ⊑ b` in the bounded value lattice.
fn val_le(a: &Val, b: &Val) -> bool {
    a.join(b, BOUND) == *b
}

fn env_le(a: &Env, b: &Env) -> bool {
    join_env(a, b, BOUND) == *b
}

/// Pointwise heap order, absent cells reading as `⊥`.
fn heap_le(a: &BTreeMap<HeapKey, Val>, b: &BTreeMap<HeapKey, Val>) -> bool {
    a.iter()
        .all(|(k, v)| val_le(v, b.get(k).unwrap_or(&Val::Bottom)))
}

/// Pointwise heap join (what the sequential walk computes cell by cell).
fn heap_join(a: &BTreeMap<HeapKey, Val>, b: &BTreeMap<HeapKey, Val>) -> BTreeMap<HeapKey, Val> {
    let mut out = a.clone();
    for (k, v) in b {
        let entry = out.entry(*k).or_default();
        *entry = entry.join(v, BOUND);
    }
    out
}

#[test]
fn val_join_is_a_bounded_semilattice() {
    let mut rng = SplitMix64::new(0x1A77);
    for case in 0..2_000 {
        let (a, b, c) = (
            random_val(&mut rng),
            random_val(&mut rng),
            random_val(&mut rng),
        );
        assert_eq!(a.join(&a, BOUND), a, "idempotent, case {case}: {a}");
        assert_eq!(
            a.join(&b, BOUND),
            b.join(&a, BOUND),
            "commutative, case {case}: {a} ⊔ {b}"
        );
        // Associative even with the collapse-to-⊤ widening: a grouping
        // can only collapse when the total key union exceeds the bound,
        // and ⊤ is absorbing, so every grouping agrees.
        assert_eq!(
            a.join(&b, BOUND).join(&c, BOUND),
            a.join(&b.join(&c, BOUND), BOUND),
            "associative, case {case}: {a}, {b}, {c}"
        );
        // ⊥ is the unit, ⊤ absorbs.
        assert_eq!(a.join(&Val::Bottom, BOUND), a, "case {case}");
        assert!(a.join(&Val::Top, BOUND).is_top(), "case {case}");
        // Both arguments are below the join; join is the least thing
        // monotonicity needs.
        let ab = a.join(&b, BOUND);
        assert!(val_le(&a, &ab) && val_le(&b, &ab), "case {case}");
        if val_le(&a, &b) {
            assert!(
                val_le(&a.join(&c, BOUND), &b.join(&c, BOUND)),
                "join not monotone, case {case}: {a} ⊑ {b}, c = {c}"
            );
        }
    }
}

#[test]
fn env_join_is_a_semilattice_and_aging_is_monotone() {
    let mut rng = SplitMix64::new(0x2B88);
    for case in 0..1_000 {
        let nlocals = rng.gen_range(0, 6) as usize;
        let a = random_env(&mut rng, nlocals);
        let b = random_env(&mut rng, nlocals);
        let c = random_env(&mut rng, nlocals);
        assert_eq!(join_env(&a, &a, BOUND), a, "idempotent, case {case}");
        assert_eq!(
            join_env(&a, &b, BOUND),
            join_env(&b, &a, BOUND),
            "commutative, case {case}"
        );
        assert_eq!(
            join_env(&join_env(&a, &b, BOUND), &c, BOUND),
            join_env(&a, &join_env(&b, &c, BOUND), BOUND),
            "associative, case {case}"
        );
        let ab = join_env(&a, &b, BOUND);
        assert!(env_le(&a, &ab) && env_le(&b, &ab), "case {case}");
        if env_le(&a, &b) {
            assert!(
                env_le(&join_env(&a, &c, BOUND), &join_env(&b, &c, BOUND)),
                "join_env not monotone, case {case}"
            );
            assert!(
                env_le(&age_env(&a), &age_env(&b)),
                "age_env not monotone, case {case}: {a:?} ⊑ {b:?}"
            );
        }
    }
}

#[test]
fn heap_aging_is_monotone_and_commutes_with_join() {
    let mut rng = SplitMix64::new(0x3C99);
    for case in 0..1_000 {
        let a = random_heap(&mut rng);
        let b = random_heap(&mut rng);
        if heap_le(&a, &b) {
            assert!(
                heap_le(
                    &age_heap_map(a.clone(), BOUND),
                    &age_heap_map(b.clone(), BOUND)
                ),
                "age_heap_map not monotone, case {case}: {a:?} ⊑ {b:?}"
            );
        }
        // Aging distributes over the pointwise join: joining two heaps
        // and then aging equals aging each and joining.
        assert_eq!(
            age_heap_map(heap_join(&a, &b), BOUND),
            heap_join(
                &age_heap_map(a.clone(), BOUND),
                &age_heap_map(b.clone(), BOUND)
            ),
            "aging does not distribute over join, case {case}: {a:?}, {b:?}"
        );
        // Aging never produces a fresh-generation cell.
        for ((_, gen, _), _) in age_heap_map(a, BOUND) {
            assert_ne!(gen, Gen::Fresh, "case {case}");
        }
    }
}

#[test]
fn flow_back_is_idempotent_inside_monotone_and_stays_in_the_escape_chain() {
    for a in ERAS {
        assert_eq!(
            a.flow_back().flow_back(),
            a.flow_back(),
            "flow_back not idempotent at {a}"
        );
        // The refinement proves flow-back; it must never forget escape
        // or invent one: `persists` and `is_inside` are both preserved,
        // so replaying the rewrite on an already-rewritten cell changes
        // nothing.
        assert_eq!(a.flow_back().persists(), a.persists(), "at {a}");
        assert_eq!(a.flow_back().is_inside(), a.is_inside(), "at {a}");
        for b in ERAS {
            // Monotone on the inside chain (0̂ is incomparable to the
            // inside values in well-formed states; the conservative
            // total join puts it below ⊤̂ only).
            if a.is_inside() && b.is_inside() && a.le(b) {
                assert!(
                    a.flow_back().le(b.flow_back()),
                    "flow_back not monotone at {a} ⊑ {b}"
                );
            }
        }
    }
}

#[test]
fn val_aging_is_monotone_and_kills_persistence_refinements() {
    let mut rng = SplitMix64::new(0x4DAA);
    for case in 0..2_000 {
        let a = random_val(&mut rng);
        let b = random_val(&mut rng);
        if val_le(&a, &b) {
            assert!(
                val_le(&a.age(), &b.age()),
                "Val::age not monotone, case {case}: {a} ⊑ {b}"
            );
        }
        // After aging, everything that exists persists: the next
        // iteration's loads may observe any surviving object.
        if !a.is_bottom() {
            assert!(a.age().may_persist(), "case {case}: {a}");
        }
    }
}
