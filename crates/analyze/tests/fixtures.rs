//! Fixture tests for the analyzer rules: each rule must reject its bad
//! snippet, accept the blessed variant, and survive the lexer edge cases
//! (raw strings, comments, `#[cfg(test)]` regions) that broke the old
//! awk-based scripts. Run the rules themselves with
//! `cargo run -p mate-analyze -- --rule vfs|obs|panic|lock`.

use mate_analyze::{run_rules, scan_source, RuleId};

fn lines(rule: RuleId, src: &str) -> Vec<usize> {
    scan_source(rule, "fixture.rs", src)
        .into_iter()
        .map(|f| f.line)
        .collect()
}

// ---------------------------------------------------------------- R1 vfs-seam

#[test]
fn vfs_flags_raw_fs_write() {
    let src = "fn persist(p: &Path, b: &[u8]) {\n    std::fs::write(p, b).ok();\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), vec![2]);
}

#[test]
fn vfs_flags_file_create_and_open_options() {
    let src = "fn a(p: &Path) {\n    let f = File::create(p);\n    let g = OpenOptions::new().append(true).open(p);\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), vec![2, 3]);
}

#[test]
fn vfs_accepts_blessed_line() {
    // Preceding-comment blessing and trailing same-line blessing both work.
    let src = "fn a(p: &Path) {\n    // vfs-exempt: test scaffolding writes outside the engine\n    std::fs::write(p, b\"x\").ok();\n    std::fs::rename(p, p) // vfs-exempt: tmpfile shuffle in a bench\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), Vec::<usize>::new());
}

#[test]
fn vfs_blessing_consumed_by_first_code_line() {
    // The blessing covers exactly one code line: the second call is flagged.
    let src = "fn a(p: &Path) {\n    // vfs-exempt: one write only\n    std::fs::write(p, b\"x\").ok();\n    std::fs::write(p, b\"y\").ok();\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), vec![4]);
}

#[test]
fn vfs_blessing_survives_intervening_comments() {
    let src = "fn a(p: &Path) {\n    // vfs-exempt: the write below\n    // (details: recovery scratch file)\n\n    std::fs::write(p, b\"x\").ok();\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), Vec::<usize>::new());
}

#[test]
fn vfs_ignores_pattern_in_string_and_comment() {
    let src = "fn a() {\n    let s = \"std::fs::write(p, b)\";\n    // std::fs::write is forbidden here\n    let r = r#\"File::create(path)\"#;\n}\n";
    assert_eq!(lines(RuleId::VfsSeam, src), Vec::<usize>::new());
}

// ---------------------------------------------------------------- R2 obs-seam

#[test]
fn obs_flags_instant_and_systemtime() {
    let src = "fn t() {\n    let a = Instant::now();\n    let b = SystemTime::now();\n}\n";
    assert_eq!(lines(RuleId::ObsSeam, src), vec![2, 3]);
}

#[test]
fn obs_flags_atomic_counter_field() {
    // Structural check from the old obs script: a bare AtomicU64 struct
    // field is an ad-hoc counter even without `AtomicU64::new(` on the line.
    let src = "struct S {\n    hits: AtomicU64,\n    pub misses: AtomicU64\n}\n";
    assert_eq!(lines(RuleId::ObsSeam, src), vec![2, 3]);
}

#[test]
fn obs_accepts_blessed_counter() {
    let src = "struct S {\n    // obs-exempt: cache-internal stat, not a metrics-registry counter\n    hits: AtomicU64,\n    misses: AtomicU64, // obs-exempt: ditto\n}\n";
    assert_eq!(lines(RuleId::ObsSeam, src), Vec::<usize>::new());
}

#[test]
fn obs_ignores_test_code() {
    let src = "#[cfg(test)]\nmod tests {\n    fn t() { let a = Instant::now(); }\n}\n";
    assert_eq!(lines(RuleId::ObsSeam, src), Vec::<usize>::new());
}

// ----------------------------------------------------------- R3 panic-freedom

#[test]
fn panic_flags_unwrap_expect_and_macros() {
    let src = "fn f(o: Option<u32>) -> u32 {\n    let a = o.unwrap();\n    let b = o.expect(\"present\");\n    if a == 0 { panic!(\"zero\"); }\n    match a { 1 => b, _ => unreachable!() }\n}\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), vec![2, 3, 4, 5]);
}

#[test]
fn panic_accepts_blessed_sites() {
    let src = "fn f(o: Option<u32>) -> u32 {\n    // panic-exempt: caller asserts Some in its contract\n    o.unwrap()\n}\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), Vec::<usize>::new());
}

#[test]
fn panic_ignores_test_module_but_scans_code_after_it() {
    // Stricter than the awk scripts: code after a test module is scanned.
    let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n\nfn after() { Some(1).unwrap(); }\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), vec![7]);
}

#[test]
fn panic_ignores_braceless_cfg_test_item() {
    let src = "#[cfg(test)]\nuse std::collections::HashMap;\n\nfn live() { Some(1).unwrap(); }\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), vec![4]);
}

#[test]
fn panic_ignores_unwrap_in_raw_string_and_nested_comment() {
    let src = "fn f() {\n    let s = r#\"x.unwrap()\"#;\n    /* outer /* x.unwrap() */ still comment */\n    let t = \"esc \\\" x.unwrap()\";\n}\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), Vec::<usize>::new());
}

#[test]
fn panic_does_not_flag_unwrap_or_else() {
    // `.unwrap(` requires the literal call; unwrap_or / unwrap_or_else differ.
    let src = "fn f(o: Option<u32>) -> u32 { o.unwrap_or(0) + o.unwrap_or_else(|| 1) }\n";
    assert_eq!(lines(RuleId::PanicFreedom, src), Vec::<usize>::new());
}

// -------------------------------------------------------- R4 lock-discipline

#[test]
fn lock_flags_raw_mutex_and_parking_lot() {
    let src = "use parking_lot::Mutex;\nstruct S {\n    inner: std::sync::RwLock<u32>,\n}\nfn f() { let m = Mutex::new(0u32); }\n";
    assert_eq!(lines(RuleId::LockDiscipline, src), vec![1, 3, 5]);
}

#[test]
fn lock_accepts_ranked_wrappers() {
    let src = "use mate_obs::lockrank::{RankedCondvar, RankedMutex, RankedRwLock};\nstruct S {\n    commit: RankedMutex<u32>,\n    engine: RankedRwLock<u32>,\n    cv: RankedCondvar,\n}\n";
    assert_eq!(lines(RuleId::LockDiscipline, src), Vec::<usize>::new());
}

#[test]
fn lock_ident_boundary_matches_qualified_paths() {
    // `RankedMutex<` must not match `Mutex<`, but `std::sync::Mutex<` must.
    let src = "fn f() {\n    let a: RankedMutex<u32> = mk();\n    let b: std::sync::Mutex<u32> = Default::default();\n}\n";
    assert_eq!(lines(RuleId::LockDiscipline, src), vec![3]);
}

#[test]
fn lock_blessing_works() {
    let src = "// lock-exempt: FFI boundary needs a raw guard type\nuse std::sync::Mutex;\n";
    assert_eq!(lines(RuleId::LockDiscipline, src), Vec::<usize>::new());
}

// ------------------------------------------------------------- repo self-scan

#[test]
fn repo_is_clean_under_all_rules() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let findings = run_rules(&root, &RuleId::ALL).expect("scan workspace");
    assert!(
        findings.is_empty(),
        "analyzer found violations in the workspace:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
