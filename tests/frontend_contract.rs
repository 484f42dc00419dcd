//! The frontend's observable behaviour, pinned.
//!
//! Two tables, both recorded from the frontend before its flat-data
//! rewrite and held fixed since:
//!
//! * every error site of the lexer, parser and resolver, reached by a
//!   minimal malformed input, with the exact `CompileError` display text
//!   (phase, line:column, message);
//! * an FNV-1a digest of `print_program` for the corpus exemplars, the
//!   eight Table-1 subjects and a 20k-statement `generate_large` subject,
//!   so any change in the lowered IR (statement order, temporaries,
//!   labels, names) shows as a digest mismatch.

use leakchecker::cache::fnv1a;
use leakchecker_benchsuite::{all_subjects, generate_large, LargeConfig};
use leakchecker_frontend::compile;
use leakchecker_ir::pretty::print_program;

/// `(source, display)`: `"OK"` when the source compiles.
const ERRORS: &[(&str, &str)] = &[
    ("/* never closed", "lexical error at 1:1: unterminated block comment"),
    ("class C { int x = 99999999999999999999999; }", "lexical error at 1:19: integer literal overflows i64"),
    ("class C { int x = 12abc; }", "lexical error at 1:19: identifier cannot start with a digit"),
    ("class C { @fp(\"oops", "lexical error at 1:15: unterminated string literal"),
    ("class C { @fp(\"oops\\", "lexical error at 1:15: unterminated string literal"),
    ("class C { @ }", "lexical error at 1:11: expected annotation name after `@`"),
    ("class C { int x = 1 # 2; }", "lexical error at 1:21: unexpected character `#`"),
    ("class C { é }", "lexical error at 1:11: unexpected character `é`"),
    ("class C { int x = 1 & 2; }", "lexical error at 1:21: unexpected character `&`"),
    ("class C { } int", "syntax error at 1:13: expected `class`, found `int`"),
    ("class C { int x = 1 }", "syntax error at 1:21: expected `;`, found `}`"),
    ("class C { void m() { int x = 1 } }", "syntax error at 1:32: expected `;`, found `}`"),
    ("class { }", "syntax error at 1:7: expected identifier, found `{`"),
    ("class C extends { }", "syntax error at 1:17: expected identifier, found `{`"),
    ("class C { void m(int) { } }", "syntax error at 1:21: expected identifier, found `)`"),
    ("class C { void m() { x.; } }", "syntax error at 1:24: expected identifier, found `;`"),
    ("class C { void m() { @check if (nondet()) { } } }", "syntax error at 1:29: expected `while`, found `if`"),
    ("class C { void m() { C x = @leak C(); } }", "syntax error at 1:34: expected `new`, found `C`"),
    ("class C { int x;", "syntax error at 1:17: unexpected end of input inside class body"),
    ("class C { void m() { int x = 1;", "syntax error at 1:32: unexpected end of input inside block"),
    ("class C { @leak void m() { } }", "syntax error at 1:11: annotation `@leak` is not valid on members"),
    ("class C { @region int x; }", "syntax error at 1:24: `@region` is only valid on methods"),
    ("class C { 5 x; }", "syntax error at 1:11: expected type name, found `5`"),
    ("class C { void m() { int x = new 5(); } }", "syntax error at 1:34: expected type name, found `5`"),
    ("class C { void m() { C x = @fp(5) new C(); } }", "syntax error at 1:32: expected string in `@fp(..)`, found `5`"),
    ("class C { void m() { C x = @check new C(); } }", "syntax error at 1:28: annotation `@check` is not valid in expression position"),
    ("class C { void m() { int x = class; } }", "syntax error at 1:30: unexpected keyword `class` in expression"),
    ("class C { void m() { int x = ; } }", "syntax error at 1:30: unexpected `;` in expression"),
    ("class C { void m() { int x = \"s\"; } }", "syntax error at 1:30: unexpected \"s\" in expression"),
    ("class C { void m() { C[] x = new C[]; } }", "syntax error at 1:37: array allocation requires a length: `new T[n]`"),
    ("class C { void m() { if nondet() { } } }", "syntax error at 1:25: expected `(`, found `nondet`"),
    ("class C { void m() { while (nondet()) int x; } }", "syntax error at 1:39: expected `{`, found `int`"),
    ("class C { void m() { return 1 } }", "syntax error at 1:31: expected `;`, found `}`"),
    ("class C { void m() { break } }", "syntax error at 1:28: expected `;`, found `}`"),
    ("class C { void m() { continue } }", "syntax error at 1:31: expected `;`, found `}`"),
    ("class C { void m() { f(1 2); } }", "syntax error at 1:26: expected `,`, found `2`"),
    ("class C { void m() { x = y z; } }", "syntax error at 1:28: expected `;`, found `z`"),
    ("class C { void m() { int x = a[1; } }", "syntax error at 1:33: expected `]`, found `;`"),
    ("class C { void m() { int x = (1; } }", "syntax error at 1:32: expected `)`, found `;`"),
    ("class C { void m() { int x = nondet(; } }", "syntax error at 1:37: expected `)`, found `;`"),
    ("class C { void m() { int x = 1 == 2 == 3; } }", "syntax error at 1:37: expected `;`, found `==`"),
    ("class C { void m( { } }", "syntax error at 1:19: expected type name, found `{`"),
    ("class C { void m() { C c = new C(1, ; } }", "syntax error at 1:37: unexpected `;` in expression"),
    ("class C { static static int x; }", "syntax error at 1:18: expected type name, found `static`"),
    ("class A { } class A { }", "resolution error at 1:13: duplicate class `A`"),
    ("class Object { }", "resolution error at 1:1: duplicate class `Object`"),
    ("class A extends B { }", "resolution error at 1:1: unknown superclass `B`"),
    ("class A extends B { } class B extends A { }", "resolution error at 1:23: inheritance cycle"),
    ("class A extends A { }", "resolution error at 1:1: inheritance cycle"),
    ("class C { int x; int x; }", "resolution error at 1:18: duplicate field `C.x`"),
    ("class C { void x; }", "resolution error at 1:11: fields cannot have type `void`"),
    ("class C { static int x = 1; }", "resolution error at 1:11: static fields cannot have initializers; assign in code instead"),
    ("class C { C() { } C() { } }", "resolution error at 1:19: class `C` declares multiple constructors"),
    ("class C { void m() { } void m() { } }", "resolution error at 1:24: duplicate method `C.m`"),
    ("class C { void m(void x) { } }", "resolution error at 1:11: parameters cannot have type `void`"),
    ("class C { static void main() { } } class D { static void main() { } }", "resolution error at 1:46: multiple `static main()` entry points"),
    ("class C { D x; }", "resolution error at 1:11: unknown type `D`"),
    ("class C { void[] x; }", "resolution error at 1:11: cannot form an array of `void`"),
    ("class C { void m(D d) { } }", "resolution error at 1:18: unknown type `D`"),
    ("class C { D m() { } }", "resolution error at 1:11: unknown type `D`"),
    ("class C { void m() { D d; } }", "resolution error at 1:22: unknown type `D`"),
    ("class C { void m() { void v; } }", "syntax error at 1:22: unexpected keyword `void` in expression"),
    ("class C { void m() { int x; int x; } }", "resolution error at 1:29: duplicate variable `x`"),
    ("class C { void m() { 1; } }", "resolution error at 1:22: only calls and allocations can be used as statements"),
    ("class C { void m() { int x = 1; x; } }", "resolution error at 1:33: only calls and allocations can be used as statements"),
    ("class C { void m() { return 1; } }", "resolution error at 1:22: void method cannot return a value"),
    ("class C { int m() { return; } }", "resolution error at 1:21: missing return value"),
    ("class C { void m() { while (1 == null) { } } }", "resolution error at 1:29: `null` compared with a non-reference"),
    ("class C { void m() { int x = 1; while (x + 1) { } } }", "resolution error at 1:42: condition must be `boolean`"),
    ("class C { void m() { int x = 1; if (x == null) { } } }", "resolution error at 1:37: `null` compared with a non-reference"),
    ("class C { void m() { int x = 1; if (x + 1) { } } }", "resolution error at 1:39: condition must be `boolean`"),
    ("class C { void m() { int x = true; } }", "resolution error at 1:30: type mismatch: cannot assign boolean to int"),
    ("class C { void m() { C c = null; int x = null; } }", "OK"),
    ("class C { void m() { int x = 1; x = true; } }", "resolution error at 1:37: type mismatch: cannot assign boolean to int"),
    ("class A { } class B { } class C { void m() { A a = new A(); B b = new B(); a = b; } }", "resolution error at 1:80: type mismatch: cannot assign ref(class#2) to ref(class#1)"),
    ("class C { void m() { C c = null; int x = 1; if (nondet()) { x = null + 1; } } }", "resolution error at 1:65: `null` needs a typed context (assign it to a variable or field)"),
    ("class C { static void m() { C c = this; } }", "resolution error at 1:35: `this` in a static method"),
    ("class C { int f; static void m() { int x = f; } }", "resolution error at 1:44: instance field `f` in a static method"),
    ("class C { int f; static void m() { f = 1; } }", "resolution error at 1:36: instance field `f` in a static method"),
    ("class C { void m() { int x = y; } }", "resolution error at 1:30: unknown variable `y`"),
    ("class C { void m() { y = 1; } }", "resolution error at 1:22: unknown variable `y`"),
    ("class C { void m() { int x = C.nope; } }", "resolution error at 1:31: unknown static field `nope`"),
    ("class C { void m() { C.nope = 1; } }", "resolution error at 1:23: unknown static field `nope`"),
    ("class C { int f; void m() { int x = C.f; } }", "resolution error at 1:38: `f` is an instance field, not static"),
    ("class C { int f; void m() { C.f = 1; } }", "resolution error at 1:30: `f` is not static"),
    ("class C { void m() { C c = new C(); int x = c.nope; } }", "resolution error at 1:46: no field `nope` on `C`"),
    ("class C { void m() { C c = new C(); c.nope = 1; } }", "resolution error at 1:38: no field `nope` on `C`"),
    ("class C { static int f; void m() { C c = new C(); int x = c.f; } }", "resolution error at 1:60: `f` is static; access it via the class name"),
    ("class C { static int f; void m() { C c = new C(); c.f = 1; } }", "resolution error at 1:52: `f` is static"),
    ("class C { void m() { int y = 1; int x = y.f; } }", "resolution error at 1:42: field access on non-object int"),
    ("class C { void m() { int y = 1; y.f = 1; } }", "resolution error at 1:34: field store on non-object"),
    ("class C { void m() { int y = 1; int x = y[0]; } }", "resolution error at 1:42: indexing a non-array"),
    ("class C { void m() { int y = 1; y[0] = 1; } }", "resolution error at 1:34: indexing a non-array"),
    ("class C { void m() { C[] a = new C[2]; C x = a[true]; } }", "resolution error at 1:48: array index must be `int`"),
    ("class C { void m() { C[] a = new C[2]; a[true] = null; } }", "resolution error at 1:42: array index must be `int`"),
    ("class C { void m() { D d = new D(); } }", "resolution error at 1:22: unknown type `D`"),
    ("class C { C(int x) { } void m() { C c = new C(); } }", "resolution error at 1:41: constructor of `C` takes 1 argument(s), 0 given"),
    ("class C { void m() { C[] a = new C[true]; } }", "resolution error at 1:36: array length must be `int`"),
    ("class C { void m() { int x = 1 + true; } }", "resolution error at 1:32: arithmetic requires `int` operands"),
    ("class C { void m() { boolean b = 1 < true; } }", "resolution error at 1:36: comparison requires `int` operands"),
    ("class C { void m() { int x = 1; if (x < true) { } } }", "resolution error at 1:39: comparison requires `int` operands"),
    ("class C { void m() { C a = new C(); boolean b = a == a; } }", "resolution error at 1:51: reference equality is only supported against `null` in conditions"),
    ("class C { void m() { C a = new C(); if (a == a) { } } }", "resolution error at 1:43: reference equality is only supported against `null`"),
    ("class C { void m() { boolean b = 1 == true; } }", "resolution error at 1:36: equality requires same-typed operands"),
    ("class C { void m() { int x = 1; if (x == true) { } } }", "resolution error at 1:39: equality requires same-typed operands"),
    ("class C { void m() { boolean b = 1 && true; } }", "resolution error at 1:36: logical operators require `boolean`"),
    ("class C { void m() { boolean b = !1; } }", "resolution error at 1:34: `!` requires a `boolean`"),
    ("class C { void m() { int x = 1; if (!x) { } } }", "resolution error at 1:38: `!` requires a `boolean`"),
    ("class C { void m() { int x = -true; } }", "resolution error at 1:30: unary `-` requires an `int`"),
    ("class C { void m() { nope(); } }", "resolution error at 1:22: unknown method `nope`"),
    ("class C { void i() { } static void m() { i(); } }", "resolution error at 1:42: instance method `i` called from a static method"),
    ("class C { void m() { C.nope(); } }", "resolution error at 1:23: no method `nope` on class `C`"),
    ("class C { void i() { } void m() { C.i(); } }", "resolution error at 1:36: `i` is an instance method; call it on an object"),
    ("class C { void m() { int x = 1; x.f(); } }", "resolution error at 1:34: method call on non-object int"),
    ("class C { void m() { C c = new C(); c.nope(); } }", "resolution error at 1:38: no method `nope` on `C`"),
    ("class C { static void s() { } void m() { C c = new C(); c.s(); } }", "resolution error at 1:58: `s` is static; call it via the class name"),
    ("class C { void f(int x) { } void m() { f(); } }", "resolution error at 1:40: `f` takes 1 argument(s), 0 given"),
    ("class C { void m() { 1 = 2; } }", "resolution error at 1:22: invalid assignment target"),
    ("class C { void m() { C c = new C(); c.m() = 2; } }", "resolution error at 1:37: invalid assignment target"),
    ("class C { void m() { new D(); } }", "resolution error at 1:22: unknown class `D`"),
    ("class C { void f(int x) { } void m() { f(true); } }", "resolution error at 1:42: type mismatch: cannot assign boolean to int"),
    ("class C { C(int x) { } void m() { C c = new C(false); } }", "resolution error at 1:47: type mismatch: cannot assign boolean to int"),
    ("class C { int f; void m() { f = true; } }", "resolution error at 1:33: type mismatch: cannot assign boolean to int"),
    ("class C { int f; void m() { C c = new C(); c.f = true; } }", "resolution error at 1:50: type mismatch: cannot assign boolean to int"),
    ("class C { int m() { return true; } }", "resolution error at 1:28: type mismatch: cannot assign boolean to int"),
    ("library", "syntax error at 1:8: expected `class`, found end of input"),
    ("class C { void m() { x = 1 @leak; } }", "syntax error at 1:28: expected `;`, found `@leak`"),
    ("class C { void m() { x = 1 007; } }", "syntax error at 1:28: expected `;`, found `7`"),
    ("class C { void m() { x = 1 \"a\\nb\"; } }", "syntax error at 1:28: expected `;`, found \"a\nb\""),
    ("class C { void m() { x = 1", "syntax error at 1:27: expected `;`, found end of input"),
    ("class C { void m() { int x = @leak; } }", "syntax error at 1:35: expected `new`, found `;`"),
    ("class C { int[] a; void m() { a[0] = true; } }", "resolution error at 1:38: type mismatch: cannot assign boolean to int"),
    ("class C {\n  // é comment\n  int é; }", "lexical error at 3:7: unexpected character `é`"),
    ("class C {\n\tvoid m() {\n\t\tint x = y;\n\t}\n}", "resolution error at 3:11: unknown variable `y`"),
    ("class C {\r\n  void m() {\r\n    int x = 1 }\r\n}", "syntax error at 3:15: expected `;`, found `}`"),
    ("class C { void m() { int x = 1; } }\n\n   /* tail", "lexical error at 3:4: unterminated block comment"),
    ("", "OK"),
    ("class C {\u{a0}int x = 1 # 2; }", "lexical error at 1:21: unexpected character `#`"),
];

#[test]
fn malformed_inputs_report_their_exact_errors() {
    let mut wrong = Vec::new();
    for (source, want) in ERRORS {
        let got = match compile(source) {
            Ok(_) => "OK".to_string(),
            Err(e) => e.to_string(),
        };
        if got != *want {
            wrong.push(format!("{source:?}\n  want {want}\n  got  {got}"));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// `(subject, fnv1a(print_program))`.
const DIGESTS: &[(&str, u64)] = &[
    ("exemplar-alias-chain-2.jml", 0x63b50c0af288bcef),
    ("exemplar-carry-over.jml", 0x2d4da833e6862f0d),
    ("exemplar-cond-carry.jml", 0xeb156a6dda6b2bc5),
    ("exemplar-cond-escape.jml", 0xeffac38b5a0e0f75),
    ("exemplar-degraded-andersen.jml", 0x0965c51654e35220),
    ("exemplar-double-edge.jml", 0x213f8c359340c671),
    ("exemplar-leak.jml", 0x0965c51654e35220),
    ("exemplar-library-carry.jml", 0xfc7395da489203a6),
    ("exemplar-library-store.jml", 0x4565600636f50924),
    ("exemplar-local.jml", 0x83c3e430c283d2a4),
    ("exemplar-nested-loop-3.jml", 0xc5ad7dab0f6cdf5e),
    ("exemplar-recursive-escape-2.jml", 0xb0bead555247a59d),
    ("specjbb", 0xf39a43b9e854a6d4),
    ("eclipse-diff", 0x0e0e1854f899442b),
    ("eclipse-cp", 0xd13470ca2ef47d3b),
    ("mysql-connectorj", 0x2142598852aabd70),
    ("log4j", 0x5275060aced15f22),
    ("findbugs", 0xa2769a598c313750),
    ("derby", 0x074844ab0d19c6cd),
    ("mikou", 0x3f829e023562f9c9),
    ("large-seed0-20k", 0x5d437ee130b17206),
];

fn digest_of(source: &str) -> u64 {
    let unit = compile(source).unwrap_or_else(|e| panic!("{e}"));
    fnv1a(print_program(&unit.program).as_bytes())
}

#[test]
fn lowered_ir_matches_the_recorded_digests() {
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut paths: Vec<_> = std::fs::read_dir(&corpus)
        .expect("tests/corpus must exist")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jml"))
        .collect();
    paths.sort();
    for path in &paths {
        let source = std::fs::read_to_string(path).expect("readable exemplar");
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        got.push((name, digest_of(&source)));
    }
    for subject in all_subjects() {
        let unit = subject.compile();
        got.push((
            subject.name.to_string(),
            fnv1a(print_program(&unit.program).as_bytes()),
        ));
    }
    let large = generate_large(LargeConfig {
        target_statements: 20_000,
        seed: 0,
        ..LargeConfig::default()
    });
    got.push(("large-seed0-20k".to_string(), digest_of(&large.source)));
    let want: Vec<(String, u64)> = DIGESTS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    assert_eq!(got, want);
}

/// An array of `void` is refused wherever it is formed: an allocation
/// gets the error a declared field, parameter or return type gets.
#[test]
fn allocating_an_array_of_void_is_refused() {
    for (source, want) in [
        (
            "class C { static void main() { Object o = new void[3]; } }",
            "resolution error at 1:47: cannot form an array of `void`",
        ),
        (
            "class C {\n  void m() {\n    Object o = @leak new void[1];\n  }\n}",
            "resolution error at 3:26: cannot form an array of `void`",
        ),
    ] {
        let got = compile(source).map(|_| ()).unwrap_err().to_string();
        assert_eq!(got, want, "{source:?}");
    }
    assert!(compile("class C { static void main() { Object o = new int[3]; } }").is_ok());
}
