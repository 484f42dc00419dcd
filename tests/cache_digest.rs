//! The summary cache's digest path keys exactly like the full path.
//!
//! `TargetKeys` skips the callgraph and the SCC pass when the store
//! remembers a root key for the program's digest. Its root key must
//! equal `compute_keys(..).root_key` on every program: the corpus
//! exemplars, a constant edit (the analysis cannot see it, so the key
//! stays and the digest path answers) and a visible edit (the key
//! changes) of each, and every Table-1 target, regions included —
//! before recording, after recording, and after the store is reopened
//! from disk.

use leakchecker::target::resolve;
use leakchecker::{
    compute_keys, CachedTarget, CheckTarget, DetectorConfig, SummaryCache, TargetKeys,
};
use leakchecker_benchsuite::all_subjects;
use leakchecker_fuzz::parse_entry;
use leakchecker_ir::Program;
use std::path::{Path, PathBuf};

fn store_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leakc-digest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Keys `target` through `store`; returns the root key and whether the
/// digest path answered.
fn digest_key(store: &SummaryCache, program: &Program, target: CheckTarget) -> (u64, bool) {
    let config = DetectorConfig::default();
    let mut remembered = false;
    let keys = TargetKeys::new(
        resolve(program, target).expect("target resolves"),
        config.callgraph,
        |digest| {
            let root = store.remembered_root(digest);
            remembered = root.is_some();
            root
        },
    );
    (keys.root_key(), remembered)
}

fn full_key(program: &Program, target: CheckTarget) -> u64 {
    let resolved = resolve(program, target).expect("target resolves");
    compute_keys(
        &resolved.program,
        resolved.root,
        DetectorConfig::default().callgraph,
    )
    .root_key
}

/// Records `target` into the store under `dir`, then checks the digest
/// path against the full path on the live store and on a reopened one.
/// Returns the root key.
fn record_and_reopen(dir: &Path, label: &str, program: &Program, target: CheckTarget) -> u64 {
    let full = full_key(program, target);
    let mut store = SummaryCache::open(dir).expect("store opens");
    let (before, _) = digest_key(&store, program, target);
    assert_eq!(before, full, "{label}: before recording");
    let config = DetectorConfig::default();
    let mut keys = TargetKeys::new(
        resolve(program, target).expect("target resolves"),
        config.callgraph,
        |digest| store.remembered_root(digest),
    );
    let result_key = keys.result_key(target, &config);
    store
        .record_target(&mut keys, result_key, &CachedTarget::default())
        .expect("record commits");
    assert_eq!(digest_key(&store, program, target), (full, true), "{label}");
    let reopened = SummaryCache::open(dir).expect("store reopens");
    assert_eq!(reopened.stats.corrupt_recovered, 0, "{label}");
    assert_eq!(
        digest_key(&reopened, program, target),
        (full, true),
        "{label}: after reopening"
    );
    full
}

#[test]
fn digest_path_matches_compute_keys_on_corpus_edits() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<_> = std::fs::read_dir(corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "jml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    for path in paths {
        let label = path.display().to_string();
        let text = std::fs::read_to_string(&path).expect("entry reads");
        let source = parse_entry(&text).expect("entry parses").source;
        let step = "event = event + 1;";
        assert!(source.contains(step), "{label}: no event step to edit");
        let constant = source.replace(step, "event = event + 5;");
        let visible = source.replace(step, "event = event;");
        let compile = |src: &str| {
            let unit = leakchecker_frontend::compile(src).expect("variant compiles");
            let target = CheckTarget::Loop(unit.checked_loops[0]);
            (unit.program, target)
        };
        let dir = store_dir("corpus");
        let (program, target) = compile(&source);
        let original = record_and_reopen(&dir, &label, &program, target);

        // The constant edit is answered by the original's digest record
        // before it records anything of its own.
        let (program, target) = compile(&constant);
        let store = SummaryCache::open(&dir).expect("store reopens");
        assert_eq!(
            digest_key(&store, &program, target),
            (original, true),
            "{label}: constant edit"
        );
        assert_eq!(record_and_reopen(&dir, &label, &program, target), original);

        let (program, target) = compile(&visible);
        let (edited, remembered) = digest_key(&store, &program, target);
        assert!(!remembered, "{label}: a visible edit misses the digest");
        assert_ne!(edited, original, "{label}: a visible edit changes the key");
        assert_eq!(record_and_reopen(&dir, &label, &program, target), edited);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn digest_path_matches_compute_keys_on_table1_targets() {
    let dir = store_dir("table1");
    for subject in all_subjects() {
        let unit = subject.compile();
        let targets = unit
            .checked_loops
            .iter()
            .map(|&l| CheckTarget::Loop(l))
            .chain(unit.region_methods.iter().map(|&m| CheckTarget::Region(m)));
        for target in targets {
            record_and_reopen(
                &dir,
                &format!("{} {target:?}", subject.name),
                &unit.program,
                target,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
