//! The rule catalog and the scanner that applies it.
//!
//! Each rule is a set of ASCII substring patterns matched against the
//! lexer's code view (so comments, strings, and `#[cfg(test)]` code never
//! match), plus an exemption token. The exemption grammar matches the awk
//! gates this crate absorbed:
//!
//! * a `// <token>: <reason>` comment line blesses the **next** code
//!   line (further comment lines in between keep the blessing alive);
//! * a trailing `// <token>: <reason>` comment on the flagged line
//!   itself also blesses it;
//! * any scanned code line consumes a pending blessing, matching or not.
//!
//! Patterns that start with an identifier character only match at an
//! identifier boundary — `RankedMutex<` does not trip the `Mutex<`
//! pattern of R4.

use crate::lexer::lex;
use std::fmt;
use std::path::{Path, PathBuf};

/// The named rules; see [`RuleId::describe`] for the one-line catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleId {
    /// R1: storage-layer writes go through the `Vfs` seam.
    VfsSeam,
    /// R2: timing/counters go through the `mate_obs` seam.
    ObsSeam,
    /// R3: no unblessed panics in the engine crates.
    PanicFreedom,
    /// R4: every lock in `crates/index` is a ranked wrapper.
    LockDiscipline,
}

impl RuleId {
    /// All rules, in catalog (R1..R4) order.
    pub const ALL: [RuleId; 4] = [
        RuleId::VfsSeam,
        RuleId::ObsSeam,
        RuleId::PanicFreedom,
        RuleId::LockDiscipline,
    ];

    /// The rule's full name (`vfs-seam`, ...), used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::VfsSeam => "vfs-seam",
            RuleId::ObsSeam => "obs-seam",
            RuleId::PanicFreedom => "panic-freedom",
            RuleId::LockDiscipline => "lock-discipline",
        }
    }

    /// The short CLI alias (`--rule vfs`, ...).
    pub fn short(self) -> &'static str {
        match self {
            RuleId::VfsSeam => "vfs",
            RuleId::ObsSeam => "obs",
            RuleId::PanicFreedom => "panic",
            RuleId::LockDiscipline => "lock",
        }
    }

    /// Parses a rule name: either the short alias or the full name.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.short() == s || r.name() == s)
    }

    /// One-line description for `--list` and reports.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::VfsSeam => {
                "durability-relevant std::fs writes in crates/{index,storage} must go \
                 through the mate_storage::Vfs seam (bless: // vfs-exempt: <why>)"
            }
            RuleId::ObsSeam => {
                "no ad-hoc wall clocks or atomic counters in crates/{core,index}; use \
                 the mate_obs hub (bless: // obs-exempt: <why>)"
            }
            RuleId::PanicFreedom => {
                "no unwrap/expect/panic!/unreachable!/todo! in non-test code of \
                 crates/{storage,index,core,table} (bless: // panic-exempt: <invariant>)"
            }
            RuleId::LockDiscipline => {
                "every lock in crates/index (and the shared page cache in \
                 crates/storage/src/pager.rs) goes through a mate_obs::lockrank ranked \
                 wrapper; no raw std::sync/parking_lot guards (bless: // lock-exempt: <why>)"
            }
        }
    }

    /// The comment token that blesses a violation of this rule.
    pub fn exempt_token(self) -> &'static str {
        match self {
            RuleId::VfsSeam => "vfs-exempt",
            RuleId::ObsSeam => "obs-exempt",
            RuleId::PanicFreedom => "panic-exempt",
            RuleId::LockDiscipline => "lock-exempt",
        }
    }

    /// Workspace-relative directories (or single `.rs` files) this rule
    /// scans.
    pub fn dirs(self) -> &'static [&'static str] {
        match self {
            RuleId::VfsSeam => &["crates/index/src", "crates/storage/src"],
            RuleId::ObsSeam => &["crates/core/src", "crates/index/src"],
            RuleId::PanicFreedom => &[
                "crates/storage/src",
                "crates/index/src",
                "crates/core/src",
                "crates/table/src",
            ],
            // The page cache lives in mate_storage but participates in the
            // engine's lock-rank order (rank 55.0, `pager-cache`), so its
            // file rides along in the discipline scan.
            RuleId::LockDiscipline => &["crates/index/src", "crates/storage/src/pager.rs"],
        }
    }

    /// Workspace-relative files the rule skips wholesale (the seam
    /// implementations themselves).
    pub fn skip_files(self) -> &'static [&'static str] {
        match self {
            // vfs.rs *is* the seam: the one legitimate std::fs caller.
            RuleId::VfsSeam => &["crates/storage/src/vfs.rs"],
            RuleId::ObsSeam => &[],
            RuleId::PanicFreedom => &[],
            RuleId::LockDiscipline => &[],
        }
    }

    /// The rule's substring patterns (matched on the code view, at
    /// identifier boundaries).
    fn patterns(self) -> &'static [&'static str] {
        match self {
            RuleId::VfsSeam => &[
                "std::fs::write",
                "std::fs::copy",
                "std::fs::rename",
                "std::fs::remove_file",
                "std::fs::remove_dir",
                "std::fs::create_dir",
                "std::fs::hard_link",
                "std::fs::set_permissions",
                "File::create",
                "File::options",
                "OpenOptions",
            ],
            RuleId::ObsSeam => &["Instant::now(", "SystemTime::now(", "AtomicU64::new("],
            RuleId::PanicFreedom => &[
                ".unwrap()",
                ".expect(",
                "panic!(",
                "unreachable!(",
                "todo!(",
                "unimplemented!(",
            ],
            RuleId::LockDiscipline => &[
                "parking_lot",
                "Mutex<",
                "Mutex::new",
                "RwLock<",
                "RwLock::new",
                "Condvar",
                "MutexGuard",
                "RwLockReadGuard",
                "RwLockWriteGuard",
                "TryLockError",
            ],
        }
    }

    /// Rule-specific structural check beyond plain patterns (R2 also
    /// flags bare `name: AtomicU64` counter *fields*).
    fn structural_hit(self, code: &str) -> bool {
        match self {
            RuleId::ObsSeam => is_atomic_counter_field(code),
            _ => false,
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule violation at a specific source line.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path of the file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The original source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.excerpt
        )
    }
}

/// Port of the awk gates' field regex: `^\s*(pub )?[a-z_]+:\s*AtomicU64,?\s*$`
/// — a bare atomic counter field (should be a registered `mate_obs`
/// metric).
fn is_atomic_counter_field(code: &str) -> bool {
    let t = code.trim();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let Some((name, ty)) = t.split_once(':') else {
        return false;
    };
    let name_ok = !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    let ty = ty.trim().strip_suffix(',').unwrap_or(ty.trim());
    name_ok && ty.trim() == "AtomicU64"
}

/// Whether `code` contains `pat` at an identifier boundary: if the
/// pattern starts with an identifier character, the preceding character
/// must not be one (so `RankedMutex<` does not match `Mutex<`).
fn hits(code: &str, pat: &str) -> bool {
    let pat_starts_ident = pat
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
    let mut from = 0;
    while let Some(pos) = code[from..].find(pat) {
        let at = from + pos;
        if !pat_starts_ident || at == 0 {
            return true;
        }
        let prev = code.as_bytes()[at - 1];
        if !(prev.is_ascii_alphanumeric() || prev == b'_') {
            return true;
        }
        from = at + 1;
    }
    false
}

/// Scans one file's source text against `rule`. `file_label` is the path
/// recorded in findings. This is the testable core: fixture tests call it
/// with synthetic sources.
pub fn scan_source(rule: RuleId, file_label: &str, source: &str) -> Vec<Finding> {
    let lexed = lex(source);
    let mut findings = Vec::new();
    let mut exempt = false;
    for i in 0..lexed.orig.len() {
        if lexed.in_test[i] {
            continue;
        }
        let code = &lexed.code[i];
        let token_here = lexed.comment[i].contains(rule.exempt_token());
        if code.trim().is_empty() {
            // Comment-only or blank line: a token arms the blessing;
            // otherwise it stays as it was (comments keep it alive).
            if token_here {
                exempt = true;
            }
            continue;
        }
        let flagged = rule.patterns().iter().any(|p| hits(code, p)) || rule.structural_hit(code);
        if flagged && !exempt && !token_here {
            findings.push(Finding {
                rule,
                file: file_label.to_string(),
                line: i + 1,
                excerpt: lexed.orig[i].trim().to_string(),
            });
        }
        // Any code line consumes a pending blessing.
        exempt = false;
    }
    findings
}

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
/// A path that is itself a `.rs` file collects as exactly that file, so
/// rule scopes can name single files alongside whole directories.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if dir.is_file() {
        if dir.extension().is_some_and(|e| e == "rs") {
            out.push(dir.to_path_buf());
        }
        return Ok(());
    }
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs `rule` over its directories under the workspace `root`.
pub fn scan_tree(root: &Path, rule: RuleId) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for dir in rule.dirs() {
        let mut files = Vec::new();
        rust_files(&root.join(dir), &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            if rule.skip_files().contains(&rel.as_str()) {
                continue;
            }
            let source = std::fs::read_to_string(&path)?;
            findings.extend(scan_source(rule, &rel, &source));
        }
    }
    Ok(findings)
}

/// Runs every rule in `rules` over the workspace `root`.
pub fn run_rules(root: &Path, rules: &[RuleId]) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for &rule in rules {
        findings.extend(scan_tree(root, rule)?);
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_prefix_matching() {
        assert!(hits("let m: Mutex<u32> = x;", "Mutex<"));
        assert!(!hits("let m: RankedMutex<u32> = x;", "Mutex<"));
        assert!(hits("std::sync::Mutex<u32>", "Mutex<"));
        assert!(!hits("x.unwrap_or(0)", ".unwrap()"));
        assert!(hits("x.unwrap()", ".unwrap()"));
    }

    #[test]
    fn single_file_scope_collects_exactly_that_file() {
        // `dirs()` entries may name one `.rs` file (LockDiscipline pulls
        // in crates/storage/src/pager.rs); the collector must treat it as
        // a one-file scope rather than erroring on read_dir.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/rules.rs");
        let mut out = Vec::new();
        rust_files(&path, &mut out).unwrap();
        assert_eq!(out, vec![path]);
    }

    #[test]
    fn atomic_field_regex_port() {
        assert!(is_atomic_counter_field("    hits: AtomicU64,"));
        assert!(is_atomic_counter_field("pub misses: AtomicU64"));
        assert!(!is_atomic_counter_field("hits: Arc<AtomicU64>,"));
        assert!(!is_atomic_counter_field("let hits = AtomicU64::load(x);"));
    }

    #[test]
    fn rule_names_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.short()), Some(r));
            assert_eq!(RuleId::parse(r.name()), Some(r));
        }
        assert_eq!(RuleId::parse("nope"), None);
    }
}
