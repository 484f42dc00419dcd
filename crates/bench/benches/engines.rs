//! Micro-benches of the analysis engines: demand-driven CFL points-to
//! queries vs the exhaustive Andersen baseline, and the type-and-effect
//! fixpoint on its own.

use leakchecker_bench::stopwatch::bench;
use leakchecker_benchsuite::{generate, jdk::with_jdk, GenConfig};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_effects::{analyze, EffectConfig};
use leakchecker_frontend::compile;
use leakchecker_ir::ids::LocalId;
use leakchecker_pointsto::{
    Andersen, Context, DemandConfig, DemandPointsTo, Node, Pag, QueryTicket,
};
use std::hint::black_box;

fn main() {
    let generated = generate(GenConfig {
        handlers: 20,
        leak_percent: 30,
        padding_methods: 1,
        seed: 11,
    });
    let unit = compile(&generated.source).expect("compiles");
    let cg = CallGraph::build(&unit.program, Algorithm::Rta);
    let pag = Pag::build(&unit.program, &cg);
    let main_method = unit.program.entry().expect("entry");

    bench("pointsto/andersen-exhaustive", 20, || {
        Andersen::run(&unit.program, &pag)
    });
    let engine = DemandPointsTo::new(&unit.program, &pag, DemandConfig::default());
    let ticket = QueryTicket::hermetic(100_000);
    bench("pointsto/demand-one-query", 20, || {
        let (r, _, _) = engine.points_to(
            black_box(Node::Local(main_method, LocalId(0))),
            &Context::empty(),
            &ticket,
        );
        r.objects.len()
    });

    let subject = leakchecker_benchsuite::by_name("derby").expect("subject exists");
    let unit = compile(&with_jdk(subject.source)).expect("compiles");
    let cg = CallGraph::build(&unit.program, Algorithm::Rta);
    let designated = unit.checked_loops[0];
    bench("effects/twhile-fixpoint-derby", 20, || {
        let summary = analyze(
            &unit.program,
            &cg,
            black_box(designated),
            EffectConfig::default(),
        );
        summary.eras.len()
    });
}
