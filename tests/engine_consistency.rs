//! Consistency tests across the analysis engines on the real subjects:
//! the formal bound-1 domain vs the default set domain, the effects
//! engine vs the concrete interpreter, and the points-to engines against
//! each other.

use leakchecker::{check, DetectorConfig, GovernorConfig};
use leakchecker_benchsuite::{all_subjects, evaluate};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::EffectConfig;
use leakchecker_pointsto::{
    Andersen, Context, DemandConfig, DemandPointsTo, Node, Pag, QueryTicket,
};

/// The paper-exact single-site-or-⊤ domain must not *miss* leaks the set
/// domain finds (it collapses to ⊤ and over-reports instead).
#[test]
fn bound1_domain_is_no_less_conservative() {
    for subject in all_subjects() {
        let unit = subject.compile();
        let default_cfg = subject.detector_config();
        let mut bound1_cfg = subject.detector_config();
        bound1_cfg.effects = EffectConfig {
            type_set_bound: 1,
            ..bound1_cfg.effects
        };
        let default_run = check(&unit.program, subject.target(&unit), default_cfg).unwrap();
        let bound1_run = check(&unit.program, subject.target(&unit), bound1_cfg).unwrap();
        let s_default = evaluate::score(&default_run.program, &default_run);
        let s_bound1 = evaluate::score(&bound1_run.program, &bound1_run);
        assert_eq!(
            s_bound1.missed_leaks, 0,
            "{}: the formal domain missed leaks (default missed {})",
            subject.name, s_default.missed_leaks
        );
        // Collapsing can only add reports, never shrink them below the
        // set-domain's true-positive coverage.
        assert!(
            s_bound1.true_positives + s_bound1.reported_sites >= s_default.true_positives,
            "{}: bound-1 lost coverage",
            subject.name
        );
    }
}

/// Demand-driven points-to answers are contained in Andersen's on every
/// local of every subject's entry method (stripping contexts), at the
/// refinement's default per-query budget.
#[test]
fn demand_within_andersen_on_subjects() {
    let ticket = QueryTicket::hermetic(GovernorConfig::default().query_budget);
    for subject in all_subjects() {
        if subject.uses_region {
            continue;
        }
        let unit = subject.compile();
        let cg = CallGraph::build(&unit.program, Algorithm::Rta);
        let pag = Pag::build(&unit.program, &cg);
        let andersen = Andersen::run(&unit.program, &pag);
        let engine = DemandPointsTo::new(&unit.program, &pag, DemandConfig::default());
        let entry = unit.program.entry().unwrap();
        let nlocals = unit.program.method(entry).locals.len();
        for i in 0..nlocals {
            let node = Node::Local(entry, leakchecker_ir::LocalId::from_index(i));
            let (demand, _, _) = engine.points_to(node, &Context::empty(), &ticket);
            if !demand.complete {
                continue;
            }
            let exhaustive = andersen.points_to_node(&pag, node);
            for site in demand.sites() {
                assert!(
                    exhaustive.contains(&site),
                    "{}: demand {site} not in Andersen for local {i}",
                    subject.name
                );
            }
        }
    }
}

/// The detector's verdicts are deterministic: two runs agree exactly.
#[test]
fn detection_is_deterministic() {
    for subject in all_subjects() {
        let unit = subject.compile();
        let a = check(
            &unit.program,
            subject.target(&unit),
            subject.detector_config(),
        )
        .unwrap();
        let b = check(
            &unit.program,
            subject.target(&unit),
            subject.detector_config(),
        )
        .unwrap();
        assert_eq!(a.reported_sites(), b.reported_sites(), "{}", subject.name);
        assert_eq!(a.stats.loop_objects, b.stats.loop_objects);
        assert_eq!(a.stats.leaking_sites, b.stats.leaking_sites);
    }
}

/// Raising the inline depth or fixpoint budget never loses true leaks.
#[test]
fn deeper_budgets_preserve_coverage() {
    let subject = leakchecker_benchsuite::by_name("findbugs").unwrap();
    let unit = subject.compile();
    for (depth, iters) in [(4usize, 10usize), (24, 40), (48, 80)] {
        let mut config: DetectorConfig = subject.detector_config();
        config.effects = EffectConfig {
            max_inline_depth: depth,
            max_fixpoint_iters: iters,
            ..config.effects
        };
        let result = check(&unit.program, subject.target(&unit), config).unwrap();
        let score = evaluate::score(&result.program, &result);
        assert_eq!(
            score.missed_leaks, 0,
            "depth {depth} iters {iters} missed leaks"
        );
    }
}
