//! Durable, self-validating persistent summary cache.
//!
//! A `check` is a pure function of the analyzed program, the target and
//! the detector configuration — the whole pipeline is deterministic at
//! every job count. This module exploits that purity to make re-checks
//! incremental: the rendered result of each target is persisted under a
//! *content key* derived from per-method summaries, and a warm re-check
//! replays the stored bytes instead of re-running the analysis.
//!
//! # Keying scheme
//!
//! Each method gets two content hashes (FNV-1a 64 over a streaming walk
//! of its IR body — no pretty-printing on the warm path):
//!
//! * the **exact hash** covers every statement detail and changes on
//!   any edit; it drives delta diagnostics (`cache_invalidated`);
//! * the **semantic hash** normalizes detail *no static analysis in
//!   this workspace observes*: integer/boolean constants, arithmetic
//!   operators, branch and loop predicates (the analyses treat every
//!   condition as non-deterministic — see `leakchecker_ir::stmt`), and
//!   array index operands. Everything heap- or call-relevant (allocation
//!   sites, copies, loads, stores, call targets and argument wiring,
//!   control structure, loop identities) stays in the hash.
//!
//! Semantic hashes compose bottom-up over the call graph's SCC
//! condensation: a method's **composed key** folds its own semantic
//! hash with its SCC's signature and the composed keys of callee SCCs,
//! so an edit invalidates exactly the methods that can reach it —
//! transitive invalidation falls out of the hash chaining. The result
//! record of a target is keyed by the entry point's composed key, a
//! **shape fingerprint** (class/field/method tables, allocation-site
//! and loop numbering, `@leak`/`@fp` labels, the entry point — the id
//! spaces every analysis and report renderer indexes into), the target,
//! and a fingerprint of the detector configuration (with worker counts
//! normalized out: reports are jobs-invariant by construction).
//!
//! Equal keys therefore imply that a cold run would traverse the same
//! call graph over bodies that differ only in analysis-invisible
//! detail, and would render byte-identical output — which is what the
//! warm/cold CI gates re-verify empirically.
//!
//! # The warm path: a digest of the key inputs
//!
//! The composed keys are a pure function of the shape fingerprint,
//! every method's semantic hash (in `MethodId` order), the root and the
//! callgraph algorithm. [`TargetKeys`] hashes the program, digests those
//! inputs, and asks the store for the root key remembered under that
//! digest: on a match it skips the callgraph and the SCC pass, which
//! dominate a full [`compute_keys`]. A recorded result appends one `D`
//! record (digest → root key, 16 bytes of data, nothing per method)
//! after its method records, in the same commit, so a restarted process
//! keys warm too.
//!
//! # Record format and crash safety
//!
//! The store is a single append-only file (`summaries.lkc`), reusing
//! the fuzz journal's idioms: a header line binds magic and format
//! epoch; every record is one line
//!
//! ```text
//! <kind> <epoch> <fnv16hex> <len> <key> <payload>\n
//! ```
//!
//! (`<kind>` is `R` result, `M` method or `D` digest) with key and
//! payload escaped (`\\`, `\n`, space), `len` the
//! unescaped payload length, and the checksum spanning kind, epoch, key
//! and payload. The trailing newline certifies the record. A store
//! commit is one append of whole records — one `write_all`, one fsync —
//! so a result costs one fsync however many method records ride with
//! it. On load, a record failing magic/epoch/field/length/checksum
//! validation is quarantined and treated as a miss — **corruption
//! degrades to a miss, never to a wrong answer** — with the cause
//! counted in `cache_corrupt_recovered`. A torn tail (kill -9
//! mid-commit) is truncated away exactly like the journal's resume
//! path. The records a torn commit did certify stay; a commit orders
//! result, methods, digest, so that prefix is what a crash between
//! per-record commits would leave. Interior damage triggers a
//! compacting rewrite of the surviving records through
//! [`write_atomic`].
//!
//! Runs that are witness-recording, fault-injected, wall-clock-governed
//! or degraded are never cached: their outputs depend on state outside
//! the content key.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::detect::DetectorConfig;
use crate::persist::write_atomic;
use crate::target::{CheckTarget, ResolvedTarget};
use leakchecker_callgraph::{Algorithm, CallGraph};
use leakchecker_ir::{Cond, MethodId, Operand, Program, SiteLabel, Stmt, Type};

/// Store file magic.
pub const CACHE_MAGIC: &str = "LKCACHE";
/// Format epoch: bump on any incompatible change to the record format
/// *or* the keying scheme — stale files then load as all-miss. Epoch 2
/// added the digest record and `effects_locals_copied` in the stored
/// `--json` fragment.
pub const CACHE_EPOCH: u32 = 2;
/// Store file name inside the cache directory.
pub const CACHE_FILE: &str = "summaries.lkc";

/// Test hook (kill -9 mid-commit): when set to a byte count `N`, the
/// next append writes at most `N` bytes of the commit (always short of
/// its last newline), skips the fsync, and aborts the process — a
/// deterministic stand-in for a process dying mid-write with a torn,
/// uncertified record on disk.
pub const TEAR_ENV: &str = "LEAKC_CACHE_TEAR_AT";

// ---------------------------------------------------------------------
// FNV-1a 64
// ---------------------------------------------------------------------

/// Streaming FNV-1a 64 hasher (the workspace is hermetic: no external
/// hash crates; FNV matches the journal's checksum lineage).
#[derive(Copy, Clone, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fresh hasher with the FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv::default()
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fnv {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a one-byte tag (statement/operand discriminants).
    pub fn tag(&mut self, t: u8) -> &mut Fnv {
        self.bytes(&[t])
    }

    /// Absorbs a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Fnv {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes())
    }

    /// The digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64 over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------

/// The two content hashes of one method plus its composed key.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MethodKey {
    /// Hash of the full body — changes on any edit.
    pub exact: u64,
    /// Hash of the analysis-relevant projection of the body.
    pub sem: u64,
    /// `sem` composed with the callee closure (SCC condensation).
    pub composed: u64,
}

/// All content keys of one compiled program, for one entry point and
/// detector configuration.
#[derive(Clone, Debug)]
pub struct ProgramKeys {
    /// Shape fingerprint: tables and id spaces (see module docs).
    pub shape: u64,
    /// Per-method keys, by qualified name, for every method.
    pub methods: BTreeMap<String, MethodKey>,
    /// The entry point's composed key folded with the shape fingerprint
    /// and format epoch.
    pub root_key: u64,
}

impl ProgramKeys {
    /// The result-record key for a target under a configuration.
    pub fn result_key(&self, target: CheckTarget, config: &DetectorConfig) -> u64 {
        result_key(self.root_key, target, config)
    }
}

fn result_key(root_key: u64, target: CheckTarget, config: &DetectorConfig) -> u64 {
    let mut h = Fnv::new();
    h.u64(root_key);
    match target {
        CheckTarget::Loop(l) => {
            h.tag(1).u32(l.0);
        }
        CheckTarget::Region(m) => {
            h.tag(2).u32(m.0);
        }
    }
    h.u64(config_fingerprint(config));
    h.finish()
}

fn hash_type(h: &mut Fnv, ty: &Type) {
    match ty {
        Type::Int => {
            h.tag(1);
        }
        Type::Bool => {
            h.tag(2);
        }
        Type::Void => {
            h.tag(3);
        }
        Type::Ref(c) => {
            h.tag(4).u32(c.0);
        }
        Type::Array(elem) => {
            h.tag(5);
            hash_type(h, elem);
        }
    }
}

/// Exact-hash an operand; the semantic hash keeps the local reference
/// but normalizes constants (analyses never read them).
fn hash_operand(exact: &mut Fnv, sem: &mut Fnv, op: &Operand) {
    match op {
        Operand::Local(l) => {
            exact.tag(1).u32(l.0);
            sem.tag(1).u32(l.0);
        }
        Operand::Const(v) => {
            exact.tag(2).u64(*v as u64);
            sem.tag(2);
        }
    }
}

fn hash_cond(exact: &mut Fnv, sem: &mut Fnv, cond: &Cond) {
    // Every static analysis treats conditions as non-deterministic (both
    // branches join), so the semantic hash sees only "a condition".
    sem.tag(0x20);
    match cond {
        Cond::NonDet => {
            exact.tag(0x21);
        }
        Cond::IsNull(l) => {
            exact.tag(0x22).u32(l.0);
        }
        Cond::NotNull(l) => {
            exact.tag(0x23).u32(l.0);
        }
        Cond::Cmp { op, lhs, rhs } => {
            exact.tag(0x24).tag(*op as u8);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, lhs);
            hash_operand(exact, &mut scratch, rhs);
        }
        Cond::Local(l) => {
            exact.tag(0x25).u32(l.0);
        }
        Cond::NotLocal(l) => {
            exact.tag(0x26).u32(l.0);
        }
    }
}

fn hash_stmts(exact: &mut Fnv, sem: &mut Fnv, stmts: &[Stmt]) {
    exact.u64(stmts.len() as u64);
    sem.u64(stmts.len() as u64);
    for stmt in stmts {
        hash_stmt(exact, sem, stmt);
    }
}

fn hash_stmt(exact: &mut Fnv, sem: &mut Fnv, stmt: &Stmt) {
    match stmt {
        Stmt::New { dst, class, site } => {
            exact.tag(1).u32(dst.0).u32(class.0).u32(site.0);
            sem.tag(1).u32(dst.0).u32(class.0).u32(site.0);
        }
        Stmt::NewArray {
            dst,
            elem,
            len,
            site,
        } => {
            exact.tag(2).u32(dst.0).u32(site.0);
            sem.tag(2).u32(dst.0).u32(site.0);
            hash_type(exact, elem);
            hash_type(sem, elem);
            // The length operand is analysis-invisible.
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, len);
        }
        Stmt::Assign { dst, src } => {
            exact.tag(3).u32(dst.0).u32(src.0);
            sem.tag(3).u32(dst.0).u32(src.0);
        }
        Stmt::AssignNull { dst } => {
            exact.tag(4).u32(dst.0);
            sem.tag(4).u32(dst.0);
        }
        Stmt::Const { dst, value } => {
            exact.tag(5).u32(dst.0).u64(*value as u64);
            sem.tag(5).u32(dst.0);
        }
        Stmt::NonDetBool { dst } => {
            exact.tag(6).u32(dst.0);
            sem.tag(6).u32(dst.0);
        }
        Stmt::BinOp { dst, op, lhs, rhs } => {
            exact.tag(7).u32(dst.0).tag(*op as u8);
            sem.tag(7).u32(dst.0);
            hash_operand(exact, sem, lhs);
            hash_operand(exact, sem, rhs);
        }
        Stmt::Load { dst, base, field } => {
            exact.tag(8).u32(dst.0).u32(base.0).u32(field.0);
            sem.tag(8).u32(dst.0).u32(base.0).u32(field.0);
        }
        Stmt::Store { base, field, src } => {
            exact.tag(9).u32(base.0).u32(field.0).u32(src.0);
            sem.tag(9).u32(base.0).u32(field.0).u32(src.0);
        }
        Stmt::ArrayLoad { dst, base, index } => {
            exact.tag(10).u32(dst.0).u32(base.0);
            sem.tag(10).u32(dst.0).u32(base.0);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, index);
        }
        Stmt::ArrayStore { base, index, src } => {
            exact.tag(11).u32(base.0).u32(src.0);
            sem.tag(11).u32(base.0).u32(src.0);
            let mut scratch = Fnv::new();
            hash_operand(exact, &mut scratch, index);
        }
        Stmt::StaticLoad { dst, field } => {
            exact.tag(12).u32(dst.0).u32(field.0);
            sem.tag(12).u32(dst.0).u32(field.0);
        }
        Stmt::StaticStore { field, src } => {
            exact.tag(13).u32(field.0).u32(src.0);
            sem.tag(13).u32(field.0).u32(src.0);
        }
        Stmt::Call {
            dst,
            kind,
            method,
            receiver,
            args,
            site,
        } => {
            for h in [&mut *exact, &mut *sem] {
                h.tag(14);
                match dst {
                    Some(d) => h.tag(1).u32(d.0),
                    None => h.tag(0),
                };
                h.tag(*kind as u8).u32(method.0);
                match receiver {
                    Some(r) => h.tag(1).u32(r.0),
                    None => h.tag(0),
                };
                h.u64(args.len() as u64);
                for a in args {
                    h.u32(a.0);
                }
                h.u32(site.0);
            }
        }
        Stmt::Return(v) => {
            for h in [&mut *exact, &mut *sem] {
                h.tag(15);
                match v {
                    Some(l) => h.tag(1).u32(l.0),
                    None => h.tag(0),
                };
            }
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            exact.tag(16);
            sem.tag(16);
            hash_cond(exact, sem, cond);
            hash_stmts(exact, sem, then_branch);
            hash_stmts(exact, sem, else_branch);
        }
        Stmt::While { id, cond, body } => {
            exact.tag(17).u32(id.0);
            sem.tag(17).u32(id.0);
            hash_cond(exact, sem, cond);
            hash_stmts(exact, sem, body);
        }
        Stmt::Break => {
            exact.tag(18);
            sem.tag(18);
        }
        Stmt::Continue => {
            exact.tag(19);
            sem.tag(19);
        }
        Stmt::Nop => {
            exact.tag(20);
            sem.tag(20);
        }
    }
}

/// Hashes one method: signature + locals into both hashes, body
/// statements via the exact/semantic split.
fn hash_method(program: &Program, method: MethodId) -> (u64, u64) {
    let m = program.method(method);
    let mut exact = Fnv::new();
    let mut sem = Fnv::new();
    for h in [&mut exact, &mut sem] {
        h.str(&m.name);
        h.u32(m.owner.0);
        h.tag(u8::from(m.is_static));
        h.u64(m.param_count as u64);
        hash_type(h, &m.ret_ty);
        h.u64(m.locals.len() as u64);
        for local in &m.locals {
            hash_type(h, &local.ty);
        }
    }
    hash_stmts(&mut exact, &mut sem, &m.body);
    (exact.finish(), sem.finish())
}

/// Shape fingerprint: every table whose id space a report or analysis
/// indexes into. Two programs with equal fingerprints assign identical
/// meanings (and render text) to every `ClassId`, `FieldId`,
/// `MethodId`, `AllocSite`, `CallSite` and `LoopId`.
fn shape_fingerprint(program: &Program) -> u64 {
    let mut h = Fnv::new();
    h.str(CACHE_MAGIC).u32(CACHE_EPOCH);
    h.u64(program.classes().len() as u64);
    for class in program.classes() {
        h.str(&class.name);
        match class.superclass {
            Some(s) => h.tag(1).u32(s.0),
            None => h.tag(0),
        };
        h.tag(u8::from(class.is_library));
        h.u64(class.fields.len() as u64);
        for f in &class.fields {
            h.u32(f.0);
        }
        h.u64(class.methods.len() as u64);
        for m in &class.methods {
            h.u32(m.0);
        }
    }
    h.u64(program.fields().len() as u64);
    for field in program.fields() {
        h.str(&field.name);
        match field.owner {
            Some(c) => h.tag(1).u32(c.0),
            None => h.tag(0),
        };
        hash_type(&mut h, &field.ty);
        h.tag(u8::from(field.is_static));
    }
    h.u64(program.methods().len() as u64);
    for method in program.methods() {
        h.str(&method.name);
        h.u32(method.owner.0);
        h.tag(u8::from(method.is_static));
        h.u64(method.param_count as u64);
    }
    // Site tables pin the global numbering: an edit that adds or moves
    // an allocation/call/loop anywhere shifts ids and misses.
    h.u64(program.allocs().len() as u64);
    for alloc in program.allocs() {
        h.u32(alloc.method.0);
        hash_type(&mut h, &alloc.ty);
        h.str(&alloc.describe);
        match &alloc.label {
            SiteLabel::None => h.tag(0),
            SiteLabel::Leak => h.tag(1),
            SiteLabel::FalsePositive(reason) => h.tag(2).str(reason),
        };
    }
    h.u64(program.calls().len() as u64);
    for call in program.calls() {
        h.u32(call.method.0);
    }
    h.u64(program.loops().len() as u64);
    for lp in program.loops() {
        h.u32(lp.method.0);
        h.tag(u8::from(lp.synthetic));
    }
    match program.entry() {
        Some(e) => h.tag(1).u32(e.0),
        None => h.tag(0),
    };
    h.finish()
}

/// Fingerprint of the analysis-relevant configuration. Worker counts
/// are normalized out — rendered reports are jobs-invariant (the
/// repo-wide determinism contract), so a warm hit may serve any
/// `--jobs`.
pub fn config_fingerprint(config: &DetectorConfig) -> u64 {
    let mut normalized = *config;
    normalized.jobs = 0;
    normalized.effects.jobs = 0;
    fnv1a(format!("{normalized:?}").as_bytes())
}

/// `true` when a run under this configuration may consult and populate
/// the cache: witness recording, injected faults and wall-clock
/// deadlines all make output depend on state outside the content key.
pub fn cacheable_config(config: &DetectorConfig) -> bool {
    !config.witnesses
        && !config.governor.faults.is_active()
        && config.governor.deadline_ms.is_none()
}

/// The content hashes of one program: the shape fingerprint and both
/// hashes of every method, in `MethodId` order.
#[derive(Debug)]
struct ProgramHashes {
    shape: u64,
    exact: Vec<u64>,
    sem: Vec<u64>,
}

impl ProgramHashes {
    fn of(program: &Program) -> ProgramHashes {
        let (exact, sem) = (0..program.methods().len())
            .map(|i| hash_method(program, MethodId(i as u32)))
            .unzip();
        ProgramHashes {
            shape: shape_fingerprint(program),
            exact,
            sem,
        }
    }

    /// Digest of everything the composed keys are a function of: the
    /// shape, every method's semantic hash, the root and the callgraph
    /// algorithm (exact hashes do not reach any composed key).
    fn digest(&self, root: MethodId, algorithm: Algorithm) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.shape).u64(self.sem.len() as u64);
        for &s in &self.sem {
            h.u64(s);
        }
        h.u32(root.0).tag(match algorithm {
            Algorithm::Cha => 1,
            Algorithm::Rta => 2,
        });
        h.finish()
    }
}

/// Computes all content keys for `program` rooted at `root`.
///
/// Builds a call graph with `algorithm` (the same construction `check`
/// uses) for the callee relation; methods outside the reachable closure
/// get `composed = sem` and do not influence `root_key` — flows,
/// contexts, the PAG and the effect interpreter all operate within the
/// reachable closure, and dispatch-relevant signature changes are
/// pinned by the shape fingerprint.
pub fn compute_keys(program: &Program, root: MethodId, algorithm: Algorithm) -> ProgramKeys {
    compose_keys(program, &ProgramHashes::of(program), root, algorithm)
}

fn compose_keys(
    program: &Program,
    hashes: &ProgramHashes,
    root: MethodId,
    algorithm: Algorithm,
) -> ProgramKeys {
    let callgraph = CallGraph::build_from(program, &[root], algorithm);
    let mut reachable = vec![false; program.methods().len()];
    for m in callgraph.reachable_methods() {
        reachable[m.0 as usize] = true;
    }
    let n = program.methods().len();
    let ProgramHashes { shape, exact, sem } = hashes;
    let shape = *shape;

    // Callee adjacency over the reachable closure.
    let mut callees: Vec<Vec<usize>> = vec![Vec::new(); n];
    for method in callgraph.reachable_methods() {
        let mut out = Vec::new();
        collect_call_sites(&program.method(method).body, &mut |site| {
            for &target in callgraph.targets(site) {
                out.push(target.0 as usize);
            }
        });
        out.sort_unstable();
        out.dedup();
        callees[method.0 as usize] = out;
    }

    let scc = condense(n, &callees, &reachable);
    // SCCs come out of Tarjan in reverse topological order (callees
    // before callers), so one pass composes bottom-up.
    let mut scc_key: Vec<u64> = vec![0; scc.count];
    let mut composed = vec![0u64; n];
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); scc.count];
    for (v, &c) in scc.of.iter().enumerate() {
        if let Some(c) = c {
            members[c].push(v);
        }
    }
    for c in 0..scc.count {
        let mut h = Fnv::new();
        members[c].sort_unstable();
        h.u64(members[c].len() as u64);
        for &v in &members[c] {
            h.str(&program.qualified_name(MethodId(v as u32)));
            h.u64(sem[v]);
        }
        let mut callee_keys: Vec<u64> = members[c]
            .iter()
            .flat_map(|&v| callees[v].iter())
            .filter(|&&w| scc.of[w] != Some(c))
            .map(|&w| scc_key[scc.of[w].expect("callee of reachable method is reachable")])
            .collect();
        callee_keys.sort_unstable();
        callee_keys.dedup();
        h.u64(callee_keys.len() as u64);
        for k in callee_keys {
            h.u64(k);
        }
        scc_key[c] = h.finish();
        for &v in &members[c] {
            let mut hc = Fnv::new();
            hc.u64(sem[v]).u64(scc_key[c]);
            composed[v] = hc.finish();
        }
    }

    let mut methods = BTreeMap::new();
    for i in 0..n {
        let comp = if scc.of[i].is_some() {
            composed[i]
        } else {
            sem[i]
        };
        methods.insert(
            program.qualified_name(MethodId(i as u32)),
            MethodKey {
                exact: exact[i],
                sem: sem[i],
                composed: comp,
            },
        );
    }
    let root_comp = methods[&program.qualified_name(root)].composed;
    let mut hr = Fnv::new();
    hr.u32(CACHE_EPOCH).u64(shape).u64(root_comp);
    ProgramKeys {
        shape,
        methods,
        root_key: hr.finish(),
    }
}

/// One resolved target's cache keys, on the digest path: the content
/// hashes are always computed, but the callgraph, the SCC pass and the
/// name-keyed [`ProgramKeys`] only when the store has not remembered a
/// root key for the program's digest, or when a record or a changed set
/// needs them.
#[derive(Debug)]
pub struct TargetKeys<'p> {
    resolved: ResolvedTarget<'p>,
    algorithm: Algorithm,
    hashes: ProgramHashes,
    digest: u64,
    root_key: u64,
    full: Option<ProgramKeys>,
}

impl<'p> TargetKeys<'p> {
    /// Keys `resolved`. `remembered` looks a digest up in the store
    /// ([`SummaryCache::remembered_root`]); on a miss the full keys are
    /// composed. Either way the root key equals [`compute_keys`]'s.
    pub fn new(
        resolved: ResolvedTarget<'p>,
        algorithm: Algorithm,
        remembered: impl FnOnce(u64) -> Option<u64>,
    ) -> TargetKeys<'p> {
        let hashes = ProgramHashes::of(&resolved.program);
        let digest = hashes.digest(resolved.root, algorithm);
        let mut keys = TargetKeys {
            resolved,
            algorithm,
            hashes,
            digest,
            root_key: 0,
            full: None,
        };
        keys.root_key = match remembered(digest) {
            Some(root_key) => root_key,
            None => keys.program_keys().root_key,
        };
        keys
    }

    /// The root key: [`ProgramKeys::root_key`], remembered or composed.
    pub fn root_key(&self) -> u64 {
        self.root_key
    }

    /// The result-record key for `target` under `config`.
    pub fn result_key(&self, target: CheckTarget, config: &DetectorConfig) -> u64 {
        result_key(self.root_key, target, config)
    }

    /// The full per-method keys, composed on first use.
    pub fn program_keys(&mut self) -> &ProgramKeys {
        let TargetKeys {
            resolved,
            algorithm,
            hashes,
            full,
            ..
        } = self;
        full.get_or_insert_with(|| {
            compose_keys(&resolved.program, hashes, resolved.root, *algorithm)
        })
    }
}

fn collect_call_sites(stmts: &[Stmt], sink: &mut impl FnMut(leakchecker_ir::CallSite)) {
    for stmt in stmts {
        match stmt {
            Stmt::Call { site, .. } => sink(*site),
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                collect_call_sites(then_branch, sink);
                collect_call_sites(else_branch, sink);
            }
            Stmt::While { body, .. } => collect_call_sites(body, sink),
            _ => {}
        }
    }
}

/// Iterative Tarjan SCC over the reachable sub-graph. `of[v]` is the
/// SCC index of `v` (`None` for unreachable methods); SCC indices are
/// assigned in reverse topological order (callees first).
struct SccResult {
    of: Vec<Option<usize>>,
    count: usize,
}

fn condense(n: usize, callees: &[Vec<usize>], reachable: &[bool]) -> SccResult {
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut of: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut count = 0usize;

    enum Frame {
        Enter(usize),
        Resume(usize, usize),
    }

    for start in 0..n {
        if !reachable[start] || index[start] != usize::MAX {
            continue;
        }
        let mut work = vec![Frame::Enter(start)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    index[v] = next_index;
                    low[v] = next_index;
                    next_index += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    while i < callees[v].len() {
                        let w = callees[v][i];
                        i += 1;
                        if index[w] == usize::MAX {
                            work.push(Frame::Resume(v, i));
                            work.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    if descended {
                        continue;
                    }
                    if low[v] == index[v] {
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            on_stack[w] = false;
                            of[w] = Some(count);
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                    // Propagate lowlink to the parent frame, if any.
                    if let Some(Frame::Resume(parent, _)) = work.last() {
                        let parent = *parent;
                        low[parent] = low[parent].min(low[v]);
                    }
                }
            }
        }
    }
    SccResult { of, count }
}

// ---------------------------------------------------------------------
// Cached result payload
// ---------------------------------------------------------------------

/// Everything a warm hit needs to reproduce a cold target's output
/// byte-for-byte: the rendered report, the machine-readable summary
/// fragment, and the deterministic statistics printed around them.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CachedTarget {
    /// Number of leak reports.
    pub reports_n: u64,
    /// `true` when the run carried degraded confidence (never cached in
    /// practice — kept for payload completeness and forward-compat).
    pub degraded: bool,
    /// Rendered report text (`render_all`).
    pub report: String,
    /// The per-target `--json` fragment, exactly as a cold run emits it.
    pub json: String,
    /// Deterministic counters mirrored from `RunStats`, in declaration
    /// order: methods, statements, loop_objects, leaking_sites,
    /// flow_edges, candidate_sites, refuted_candidates, exhausted,
    /// retries, fallbacks, quarantined, deadline_hits, degraded_reports,
    /// batched_queries, query_batches, effects_rounds.
    pub counters: [u64; 16],
    /// Effects inlining-depth truncation flag.
    pub effects_truncated: bool,
}

impl CachedTarget {
    fn encode(&self) -> String {
        let mut out = String::new();
        out.push_str("v1");
        let _ = write!(
            out,
            "\treports_n={}\tdegraded={}\ttruncated={}",
            self.reports_n, self.degraded, self.effects_truncated
        );
        out.push_str("\tcounters=");
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        let _ = write!(out, "\treport={}", field_escape(&self.report));
        let _ = write!(out, "\tjson={}", field_escape(&self.json));
        out
    }

    fn decode(payload: &str) -> Option<CachedTarget> {
        let mut fields = payload.split('\t');
        if fields.next()? != "v1" {
            return None;
        }
        let mut out = CachedTarget::default();
        for field in fields {
            let (key, value) = field.split_once('=')?;
            match key {
                "reports_n" => out.reports_n = value.parse().ok()?,
                "degraded" => out.degraded = value.parse().ok()?,
                "truncated" => out.effects_truncated = value.parse().ok()?,
                "counters" => {
                    let parts: Vec<&str> = value.split(',').collect();
                    if parts.len() != out.counters.len() {
                        return None;
                    }
                    for (slot, part) in out.counters.iter_mut().zip(parts) {
                        *slot = part.parse().ok()?;
                    }
                }
                "report" => out.report = field_unescape(value)?,
                "json" => out.json = field_unescape(value)?,
                _ => return None,
            }
        }
        Some(out)
    }
}

/// Escapes a payload field value (`\\`, tab, newline).
fn field_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn field_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            _ => return None,
        }
    }
    Some(out)
}

// ---------------------------------------------------------------------
// Record layer
// ---------------------------------------------------------------------

/// Escapes a record key or payload for the line format (`\\`, `\n`,
/// space as `\s`): the unescaped form round-trips exactly and the
/// escaped form can never split fields or tear a line boundary.
fn record_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            ' ' => out.push_str("\\s"),
            c => out.push(c),
        }
    }
    out
}

fn record_unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            's' => out.push(' '),
            _ => return None,
        }
    }
    Some(out)
}

fn record_checksum(kind: char, key: &str, payload: &str) -> u64 {
    let mut h = Fnv::new();
    h.tag(kind as u8).u32(CACHE_EPOCH).str(key).str(payload);
    h.finish()
}

/// Renders one committed record line (including the certifying
/// newline).
fn render_record(kind: char, key: &str, payload: &str) -> String {
    format!(
        "{kind} {CACHE_EPOCH} {:016x} {} {} {}\n",
        record_checksum(kind, key, payload),
        payload.len(),
        record_escape(key),
        record_escape(payload),
    )
}

/// Renders the digest record that remembers `root_key` for `digest`.
fn render_digest(digest: u64, root_key: u64) -> String {
    render_record('D', &format!("{digest:016x}"), &format!("{root_key:016x}"))
}

/// Parses one newline-stripped record line; `None` means corrupt.
fn parse_record(line: &str) -> Option<(char, String, String)> {
    let mut parts = line.splitn(6, ' ');
    let kind_str = parts.next()?;
    let kind = match kind_str {
        "R" => 'R',
        "M" => 'M',
        "D" => 'D',
        _ => return None,
    };
    let epoch: u32 = parts.next()?.parse().ok()?;
    if epoch != CACHE_EPOCH {
        return None;
    }
    let sum = u64::from_str_radix(parts.next()?, 16).ok()?;
    let len: usize = parts.next()?.parse().ok()?;
    let key = record_unescape(parts.next()?)?;
    let payload = record_unescape(parts.next()?)?;
    if payload.len() != len {
        return None;
    }
    if record_checksum(kind, &key, &payload) != sum {
        return None;
    }
    Some((kind, key, payload))
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Cache telemetry for one run (mirrored into `RunStats` and the serve
/// `stats` verb).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Result lookups answered from the store.
    pub hits: u64,
    /// Result lookups that fell through to a cold analysis.
    pub misses: u64,
    /// Stored per-method summaries invalidated by content drift
    /// (transitively: an edited method plus everything composing over
    /// it).
    pub invalidated: u64,
    /// Records quarantined by load-time validation (magic, epoch,
    /// length, checksum, torn tail) — each recovered as a miss.
    pub corrupt_recovered: u64,
    /// fsyncs of the store file: appends, compactions and torn-tail
    /// truncations (each store commit costs one).
    pub syncs: u64,
}

/// A stored per-method summary entry.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StoredMethod {
    /// Exact content hash at record time.
    pub exact: u64,
    /// Semantic-projection hash at record time.
    pub sem: u64,
    /// Composed key at record time.
    pub composed: u64,
}

impl StoredMethod {
    /// The `M` record payload.
    fn payload(&self) -> String {
        format!(
            "{:016x},{:016x},{:016x}",
            self.exact, self.sem, self.composed
        )
    }
}

/// The persistent summary store: validated in-memory view plus an
/// append-only, fsync'd file.
#[derive(Debug)]
pub struct SummaryCache {
    path: PathBuf,
    /// Result payloads by result key (last valid record wins).
    results: BTreeMap<u64, String>,
    /// Per-method summaries by qualified name.
    methods: BTreeMap<String, StoredMethod>,
    /// Root keys by program digest (see [`TargetKeys`]): 16 bytes each,
    /// nothing per method.
    roots: BTreeMap<u64, u64>,
    /// Run telemetry.
    pub stats: CacheStats,
    /// `false` until the on-disk file has a valid current-epoch header;
    /// the first append then rewrites it from the in-memory view.
    header_valid: bool,
}

impl SummaryCache {
    /// Opens (and validates) the store under `dir`, creating the
    /// directory if needed. Corrupt records are quarantined and counted;
    /// a torn tail is truncated in place; interior damage triggers a
    /// compacting rewrite of the surviving records.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, full disk) error out —
    /// *any* byte-level damage to the store degrades to misses instead.
    pub fn open(dir: &Path) -> std::io::Result<SummaryCache> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(CACHE_FILE);
        let mut cache = SummaryCache {
            path,
            results: BTreeMap::new(),
            methods: BTreeMap::new(),
            roots: BTreeMap::new(),
            stats: CacheStats::default(),
            header_valid: false,
        };
        cache.load()?;
        Ok(cache)
    }

    fn load(&mut self) -> std::io::Result<()> {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() {
            return Ok(());
        }
        let text = String::from_utf8_lossy(&bytes);
        let Some((header, rest)) = text.split_once('\n') else {
            // Torn header: the file never finished its create; treat as
            // empty and start over on the next commit.
            self.stats.corrupt_recovered += 1;
            return Ok(());
        };
        if header != format!("{CACHE_MAGIC} {CACHE_EPOCH}") {
            // Bad magic or stale epoch: every record is a miss.
            self.stats.corrupt_recovered += 1;
            return Ok(());
        }
        self.header_valid = true;
        let mut valid_len = header.len() + 1;
        let mut interior_damage = false;
        let mut scan = rest;
        loop {
            let Some((line, tail)) = scan.split_once('\n') else {
                if !scan.is_empty() {
                    // Torn tail: an append died mid-record (kill -9 /
                    // power cut). The newline never certified it, so
                    // drop it and self-heal the file like the journal's
                    // resume path.
                    self.stats.corrupt_recovered += 1;
                    let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
                    f.set_len(valid_len as u64)?;
                    f.sync_all()?;
                    self.stats.syncs += 1;
                }
                break;
            };
            match parse_record(line) {
                Some((kind, key, payload)) => {
                    self.absorb(kind, &key, &payload);
                    if !interior_damage {
                        valid_len += line.len() + 1;
                    }
                }
                None => {
                    self.stats.corrupt_recovered += 1;
                    interior_damage = true;
                }
            }
            scan = tail;
        }
        if interior_damage {
            // Quarantined interior records: rewrite the surviving view
            // atomically so the damage cannot resurface.
            self.compact()?;
        }
        Ok(())
    }

    fn absorb(&mut self, kind: char, key: &str, payload: &str) {
        match kind {
            'R' => {
                if let Ok(k) = u64::from_str_radix(key, 16) {
                    self.results.insert(k, payload.to_string());
                } else {
                    self.stats.corrupt_recovered += 1;
                }
            }
            'M' => {
                let parts: Vec<u64> = payload
                    .split(',')
                    .filter_map(|p| u64::from_str_radix(p, 16).ok())
                    .collect();
                if parts.len() == 3 {
                    self.methods.insert(
                        key.to_string(),
                        StoredMethod {
                            exact: parts[0],
                            sem: parts[1],
                            composed: parts[2],
                        },
                    );
                } else {
                    self.stats.corrupt_recovered += 1;
                }
            }
            'D' => match (
                u64::from_str_radix(key, 16),
                u64::from_str_radix(payload, 16),
            ) {
                (Ok(digest), Ok(root_key)) => {
                    self.roots.insert(digest, root_key);
                }
                _ => self.stats.corrupt_recovered += 1,
            },
            _ => unreachable!("parse_record admits only R, M and D"),
        }
    }

    /// Rewrites the whole store from the in-memory view via
    /// [`write_atomic`], in a commit's order: results, methods, digests.
    /// A first commit into a fresh file thus lays out exactly as later
    /// appends do.
    fn compact(&mut self) -> std::io::Result<()> {
        let mut out = format!("{CACHE_MAGIC} {CACHE_EPOCH}\n");
        for (key, payload) in &self.results {
            out.push_str(&render_record('R', &format!("{key:016x}"), payload));
        }
        for (name, m) in &self.methods {
            out.push_str(&render_record('M', name, &m.payload()));
        }
        for (digest, root_key) in &self.roots {
            out.push_str(&render_digest(*digest, *root_key));
        }
        write_atomic(&self.path, out.as_bytes())?;
        self.stats.syncs += 1;
        self.header_valid = true;
        Ok(())
    }

    /// Commits `lines` (whole rendered records) with one write and one
    /// fsync; an empty commit touches nothing.
    fn append(&mut self, lines: &str) -> std::io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        if !self.header_valid {
            // First commit into a missing/stale/corrupt-headed file:
            // rewrite it wholesale. Callers update the in-memory view
            // before appending, so the compaction already persists these
            // records — appends take over from the next commit on.
            return self.compact();
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if let Ok(tear) = std::env::var(TEAR_ENV) {
            if let Ok(at) = tear.parse::<usize>() {
                // Deterministic kill -9 mid-commit: emit a torn prefix
                // whose last record has no newline, and die without
                // fsync.
                let cut = at.min(lines.len() - 1);
                let _ = file.write_all(&lines.as_bytes()[..cut]);
                let _ = file.flush();
                std::process::abort();
            }
        }
        file.write_all(lines.as_bytes())?;
        file.sync_all()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Looks up a result record; counts a hit or a miss. A payload that
    /// fails to decode (possible only through a checksum collision or a
    /// format bug) is quarantined and reported as a miss.
    pub fn lookup(&mut self, result_key: u64) -> Option<CachedTarget> {
        match self.results.get(&result_key).cloned() {
            Some(payload) => match CachedTarget::decode(&payload) {
                Some(hit) => {
                    self.stats.hits += 1;
                    Some(hit)
                }
                None => {
                    self.results.remove(&result_key);
                    self.stats.corrupt_recovered += 1;
                    self.stats.misses += 1;
                    None
                }
            },
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores a result in the in-memory view and returns its record line.
    fn result_line(&mut self, result_key: u64, target: &CachedTarget) -> String {
        let payload = target.encode();
        let line = render_record('R', &format!("{result_key:016x}"), &payload);
        self.results.insert(result_key, payload);
        line
    }

    /// Commits a result record (one fsync'd append).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the in-memory view is updated first, so
    /// a failed commit degrades to a session-local cache.
    pub fn record(&mut self, result_key: u64, target: &CachedTarget) -> std::io::Result<()> {
        let line = self.result_line(result_key, target);
        self.append(&line)
    }

    /// The root key remembered for a program digest, if any.
    pub fn remembered_root(&self, digest: u64) -> Option<u64> {
        self.roots.get(&digest).copied()
    }

    /// Commits a cold result and everything a later warm key needs, as
    /// one append in this order: the result record, the refreshed method
    /// records (see [`SummaryCache::sync_methods`]), then — if new — the
    /// digest record that lets [`TargetKeys`] skip the callgraph next
    /// time. A commit torn by a crash keeps a certified prefix: the
    /// result, then some of the method records.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures, like [`SummaryCache::record`].
    pub fn record_target(
        &mut self,
        keys: &mut TargetKeys<'_>,
        result_key: u64,
        target: &CachedTarget,
    ) -> std::io::Result<()> {
        let mut lines = self.result_line(result_key, target);
        lines.push_str(&self.method_lines(keys.program_keys()));
        if self.roots.insert(keys.digest, keys.root_key) != Some(keys.root_key) {
            lines.push_str(&render_digest(keys.digest, keys.root_key));
        }
        self.append(&lines)
    }

    /// Qualified names of stored methods whose exact hash drifted from
    /// `keys` — the changed set a delta request reports.
    pub fn changed_methods(&self, keys: &ProgramKeys) -> Vec<String> {
        self.methods
            .iter()
            .filter(|(name, stored)| {
                keys.methods
                    .get(*name)
                    .is_none_or(|k| k.exact != stored.exact)
            })
            .map(|(name, _)| name.clone())
            .collect()
    }

    /// Synchronizes per-method summaries with `keys` (see
    /// [`SummaryCache::method_lines`]) and commits the refreshed records
    /// as one append; with nothing drifted it writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the append path.
    pub fn sync_methods(&mut self, keys: &ProgramKeys) -> std::io::Result<()> {
        let lines = self.method_lines(keys);
        self.append(&lines)
    }

    /// Stores drifted or new method summaries of `keys` in the in-memory
    /// view and returns their record lines in name order. Counts every
    /// stored summary whose *composed* key drifted (the edited methods
    /// plus, transitively, everything composing over them) into
    /// `stats.invalidated`.
    fn method_lines(&mut self, keys: &ProgramKeys) -> String {
        let mut lines = String::new();
        for (name, k) in &keys.methods {
            let fresh = StoredMethod {
                exact: k.exact,
                sem: k.sem,
                composed: k.composed,
            };
            match self.methods.get_mut(name) {
                Some(stored) if *stored == fresh => continue,
                Some(stored) => {
                    if stored.composed != fresh.composed {
                        self.stats.invalidated += 1;
                    }
                    *stored = fresh;
                }
                None => {
                    self.methods.insert(name.clone(), fresh);
                }
            }
            lines.push_str(&render_record('M', name, &fresh.payload()));
        }
        lines
    }

    /// Number of stored per-method summaries (test/telemetry surface).
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of stored result records.
    pub fn result_count(&self) -> usize {
        self.results.len()
    }

    /// The store file path.
    pub fn file_path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("leakc-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_target() -> CachedTarget {
        CachedTarget {
            reports_n: 2,
            degraded: false,
            report: "leak at alloc#3\n  via Depot.save\nleak at alloc#7\n".to_string(),
            json: "{\"target\": \"Loop(LoopId(0))\", \"reports\": []}".to_string(),
            counters: [9, 1200, 3, 2, 40, 5, 3, 0, 0, 0, 0, 0, 0, 6, 2, 11],
            effects_truncated: false,
        }
    }

    #[test]
    fn record_line_round_trips_with_escapes() {
        let key = "Depot.save nested\\name";
        let payload = "line one\nline two with spaces\\and backslash";
        let line = render_record('M', key, payload);
        assert!(line.ends_with('\n'));
        assert!(!line.trim_end_matches('\n').contains('\n'));
        let (kind, k, p) = parse_record(line.trim_end_matches('\n')).unwrap();
        assert_eq!(kind, 'M');
        assert_eq!(k, key);
        assert_eq!(p, payload);
    }

    #[test]
    fn parse_rejects_every_corruption_class() {
        let good = render_record('R', "00ab", "payload body");
        let good = good.trim_end_matches('\n');
        assert!(parse_record(good).is_some());
        // Bad kind.
        assert!(parse_record(&good.replacen('R', "X", 1)).is_none());
        // Stale epoch.
        let stale = good.replacen(&format!(" {CACHE_EPOCH} "), " 999 ", 1);
        assert!(parse_record(&stale).is_none());
        // Flipped payload byte.
        let flipped = good.replacen("body", "bodY", 1);
        assert!(parse_record(&flipped).is_none());
        // Truncated record.
        assert!(parse_record(&good[..good.len() - 4]).is_none());
        // Length/payload mismatch.
        let longer = format!("{good}X");
        assert!(parse_record(&longer).is_none());
    }

    #[test]
    fn cached_target_round_trips() {
        let target = sample_target();
        assert_eq!(CachedTarget::decode(&target.encode()), Some(target));
        let tabby = CachedTarget {
            report: "tab\there\nand newline".to_string(),
            json: "back\\slash".to_string(),
            ..sample_target()
        };
        assert_eq!(CachedTarget::decode(&tabby.encode()), Some(tabby));
        assert!(CachedTarget::decode("v0\treports_n=1").is_none());
    }

    #[test]
    fn store_round_trips_across_reopen() {
        let dir = temp_store("roundtrip");
        let mut cache = SummaryCache::open(&dir).unwrap();
        assert_eq!(cache.stats, CacheStats::default());
        let target = sample_target();
        cache.record(42, &target).unwrap();
        let mut keys = ProgramKeys {
            shape: 7,
            methods: BTreeMap::new(),
            root_key: 9,
        };
        keys.methods.insert(
            "Depot.save".to_string(),
            MethodKey {
                exact: 1,
                sem: 2,
                composed: 3,
            },
        );
        cache.sync_methods(&keys).unwrap();

        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 0);
        assert_eq!(reopened.lookup(42), Some(target));
        assert_eq!(reopened.stats.hits, 1);
        assert_eq!(reopened.lookup(43), None);
        assert_eq!(reopened.stats.misses, 1);
        assert_eq!(reopened.method_count(), 1);
        assert!(reopened.changed_methods(&keys).is_empty());
    }

    #[test]
    fn sync_methods_counts_transitive_invalidation() {
        let dir = temp_store("invalidate");
        let mut cache = SummaryCache::open(&dir).unwrap();
        let mut keys = ProgramKeys {
            shape: 0,
            methods: BTreeMap::new(),
            root_key: 0,
        };
        for (name, k) in [
            ("Main.main", (10, 11, 12)),
            ("Depot.save", (20, 21, 22)),
            ("Util.log", (30, 31, 32)),
        ] {
            keys.methods.insert(
                name.to_string(),
                MethodKey {
                    exact: k.0,
                    sem: k.1,
                    composed: k.2,
                },
            );
        }
        cache.sync_methods(&keys).unwrap();
        assert_eq!(cache.stats.invalidated, 0);

        // Edit Depot.save; Main.main composes over it, Util.log does not.
        keys.methods.get_mut("Depot.save").unwrap().exact = 200;
        keys.methods.get_mut("Depot.save").unwrap().sem = 201;
        keys.methods.get_mut("Depot.save").unwrap().composed = 202;
        keys.methods.get_mut("Main.main").unwrap().composed = 120;
        assert_eq!(cache.changed_methods(&keys), vec!["Depot.save".to_string()]);
        cache.sync_methods(&keys).unwrap();
        assert_eq!(cache.stats.invalidated, 2);
    }

    /// The digest record is appended after the method records; damage
    /// to it costs the digest path, never the key: the full path then
    /// recomputes the same root key.
    #[test]
    fn damaged_digest_record_is_a_miss() {
        let unit = leakchecker_frontend::compile(
            "class Main { static void main() { @check while (nondet()) { } } }",
        )
        .unwrap();
        let target = CheckTarget::Loop(unit.checked_loops[0]);
        let algorithm = DetectorConfig::default().callgraph;
        let keys_with = |store: &SummaryCache| {
            let resolved = crate::target::resolve(&unit.program, target).unwrap();
            TargetKeys::new(resolved, algorithm, |d| store.remembered_root(d))
        };
        let dir = temp_store("digest");
        let mut cache = SummaryCache::open(&dir).unwrap();
        let mut keys = keys_with(&cache);
        cache.record_target(&mut keys, 1, &sample_target()).unwrap();
        assert_eq!(cache.remembered_root(keys.digest), Some(keys.root_key()));
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let victim = text.lines().last().unwrap().to_string();
        assert!(victim.starts_with("D "), "digest record comes last");
        let mut hacked = victim.clone().into_bytes();
        let last = hacked.len() - 1;
        hacked[last] ^= 0x01;
        let hacked = String::from_utf8(hacked).unwrap();
        std::fs::write(&path, text.replacen(&victim, &hacked, 1)).unwrap();

        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.remembered_root(keys.digest), None);
        assert_eq!(keys_with(&reopened).root_key(), keys.root_key());
        assert!(reopened.lookup(1).is_some(), "the result record survives");
    }

    /// One store commit, one fsync: a cold result with over a hundred
    /// method records costs a single sync, and re-syncing unchanged
    /// methods costs none and leaves the file untouched.
    #[test]
    fn a_commit_costs_one_sync_and_an_unchanged_sync_costs_none() {
        let mut source = String::from("class Main {\n  static void main() {\n");
        source.push_str("    @check while (nondet()) {\n");
        for i in 0..120 {
            source.push_str(&format!("      Main.f{i}();\n"));
        }
        source.push_str("    }\n  }\n");
        for i in 0..120 {
            source.push_str(&format!("  static void f{i}() {{ }}\n"));
        }
        source.push_str("}\n");
        let unit = leakchecker_frontend::compile(&source).unwrap();
        let target = CheckTarget::Loop(unit.checked_loops[0]);
        let resolved = crate::target::resolve(&unit.program, target).unwrap();
        let dir = temp_store("onesync");
        let mut cache = SummaryCache::open(&dir).unwrap();
        // The first commit compacts a fresh file; later ones append.
        cache.record(0, &sample_target()).unwrap();
        assert_eq!(cache.stats.syncs, 1);
        let mut keys = TargetKeys::new(resolved, DetectorConfig::default().callgraph, |_| None);
        cache.record_target(&mut keys, 1, &sample_target()).unwrap();
        assert!(cache.method_count() >= 100, "{}", cache.method_count());
        assert_eq!(cache.stats.syncs, 2, "one record_target, one sync");

        let path = cache.file_path().to_path_buf();
        let bytes = std::fs::read(&path).unwrap();
        cache.sync_methods(keys.program_keys()).unwrap();
        assert_eq!(cache.stats.syncs, 2, "nothing drifted, nothing synced");
        assert_eq!(cache.stats.invalidated, 0);
        assert_eq!(std::fs::read(&path).unwrap(), bytes);

        let reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats, CacheStats::default());
        assert_eq!(reopened.method_count(), cache.method_count());
        assert_eq!(reopened.remembered_root(keys.digest), Some(keys.root_key()));
    }

    #[test]
    fn corruption_matrix_every_case_loads_as_miss() {
        // Bad magic.
        let dir = temp_store("badmagic");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let bytes = std::fs::read(&path).unwrap();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "bad magic must be a miss");

        // Stale format epoch in the header.
        let dir = temp_store("staleepoch");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let stale = text.replacen(
            &format!("{CACHE_MAGIC} {CACHE_EPOCH}"),
            &format!("{CACHE_MAGIC} 999"),
            1,
        );
        std::fs::write(&path, stale).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "stale epoch must be a miss");

        // Flipped payload byte in an interior record: quarantined,
        // later records survive, and the file is compacted clean.
        let dir = temp_store("flip");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache.record(2, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let victim = text.lines().nth(1).unwrap().to_string();
        let hacked = {
            let mut v = victim.clone().into_bytes();
            let last = v.len() - 1;
            v[last] ^= 0x20;
            String::from_utf8(v).unwrap()
        };
        std::fs::write(&path, text.replacen(&victim, &hacked, 1)).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.lookup(1), None, "flipped record must be a miss");
        assert!(reopened.lookup(2).is_some(), "later record must survive");
        drop(reopened);
        let recovered = SummaryCache::open(&dir).unwrap();
        assert_eq!(
            recovered.stats.corrupt_recovered, 0,
            "compaction must leave a clean file"
        );
        assert_eq!(recovered.result_count(), 1);

        // Torn tail (kill -9 mid-commit): truncated away, file healed.
        let dir = temp_store("torn");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let mut bytes = std::fs::read(&path).unwrap();
        let full_len = bytes.len();
        let torn = render_record('R', "00ff", "half-committed");
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        std::fs::write(&path, &bytes).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert_eq!(reopened.stats.syncs, 1, "the truncation is synced");
        assert!(reopened.lookup(1).is_some(), "committed record survives");
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            full_len,
            "torn tail must be truncated in place"
        );

        // Truncation mid-file (lost tail bytes inside a record).
        let dir = temp_store("trunc");
        let mut cache = SummaryCache::open(&dir).unwrap();
        cache.record(1, &sample_target()).unwrap();
        cache.record(2, &sample_target()).unwrap();
        let path = cache.file_path().to_path_buf();
        drop(cache);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut reopened = SummaryCache::open(&dir).unwrap();
        assert_eq!(reopened.stats.corrupt_recovered, 1);
        assert!(reopened.lookup(1).is_some());
        assert_eq!(reopened.lookup(2), None, "truncated record must be a miss");
    }

    #[test]
    fn lookup_quarantines_undecodable_payloads() {
        let dir = temp_store("undecodable");
        let mut cache = SummaryCache::open(&dir).unwrap();
        // A record that passes the checksum (it was legitimately
        // committed) but whose payload is not a CachedTarget — e.g.
        // written by a buggy build sharing the epoch.
        cache.results.insert(5, "not-a-target".to_string());
        assert_eq!(cache.lookup(5), None);
        assert_eq!(cache.stats.corrupt_recovered, 1);
        assert_eq!(cache.stats.misses, 1);
    }
}
