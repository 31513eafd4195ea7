//! Scrub / quarantine / self-healing acceptance.
//!
//! The engine's cold segments are a projection of the watermark corpus
//! (checkpoint ⊕ delta chain), so a corrupted segment file is not data
//! loss: [`Engine::scrub`] detects it by CRC, preserves the corrupt bytes
//! under `quarantine/`, and rebuilds the segment from the corpus —
//! discovery-bit-identically. The property test below flips a random bit
//! of a random byte of a random cold segment of a Zipf-distributed lake
//! and requires exactly that.

use mate_core::{discover_snapshot, MateConfig};
use mate_index::engine::{Engine, EngineConfig, EngineError, EngineLake};
use mate_index::WalRecord;
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_storage::FaultVfs;
use mate_table::{ColId, Corpus, RowId, TableId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mate-engine-scrub-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config(budget: usize) -> EngineConfig {
    EngineConfig {
        memtable_budget_bytes: budget,
        max_cold_segments: 0,
        ..EngineConfig::default()
    }
}

/// A Zipf-skewed lake (web-tables profile) plus an edit tail.
fn lake_workload(seed: u64) -> (Vec<WalRecord>, GeneratedQuery) {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), seed));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows: 8,
        key_size: 2,
        payload_cols: 1,
        column_cardinality: 6,
        column_cardinalities: None,
        joinable_tables: 3,
        fp_tables: 3,
        share_range: (0.3, 0.9),
        duplication: (1, 2),
        fp_rows: (4, 8),
        hard_fp_fraction: 0.2,
        noise_rows: (2, 5),
    };
    let query = generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 8);
    let mut records: Vec<WalRecord> = corpus
        .iter()
        .map(|(_, t)| WalRecord::InsertTable { table: t.clone() })
        .collect();
    records.push(WalRecord::UpdateCell {
        table: TableId(0),
        row: RowId(0),
        col: ColId(0),
        value: "edited".into(),
    });
    records.push(WalRecord::DeleteRow {
        table: TableId(1),
        row: RowId(0),
    });
    records.push(WalRecord::DeleteTable { table: TableId(2) });
    (records, query)
}

fn assert_engines_identical(a: &Engine, b: &Engine, query: &GeneratedQuery) {
    assert_eq!(a.corpus().len(), b.corpus().len());
    for (tid, ta) in a.corpus().iter() {
        assert_eq!(ta, b.corpus().table(tid), "corpus table {tid}");
    }
    assert_eq!(a.live_postings(), b.live_postings());
    let ra = discover_snapshot(
        &a.snapshot(),
        MateConfig::default(),
        &query.table,
        &query.key,
        5,
    );
    let rb = discover_snapshot(
        &b.snapshot(),
        MateConfig::default(),
        &query.table,
        &query.key,
        5,
    );
    assert_eq!(ra.top_k, rb.top_k);
    assert_eq!(ra.stats.pl_items_fetched, rb.stats.pl_items_fetched);
    assert_eq!(ra.stats.candidate_tables, rb.stats.candidate_tables);
    assert_eq!(
        ra.stats.rows_verified_joinable,
        rb.stats.rows_verified_joinable
    );
}

fn seg_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("seg-") && n.ends_with(".seg"))
        .collect();
    names.sort();
    names
}

fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap().flatten() {
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// The shared pristine on-disk lake the property test corrupts copies of:
/// several cold segments, an empty WAL tail (final explicit flush), built
/// exactly once per test process.
struct Fixture {
    base: PathBuf,
    pristine: PathBuf,
    query: GeneratedQuery,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let (records, query) = lake_workload(97);
        let base = tmpdir("prop");
        let pristine = base.join("pristine");
        let mut e = Engine::create(&pristine, config(2000)).unwrap();
        for r in &records {
            e.apply(r.clone()).unwrap();
        }
        e.flush().unwrap();
        assert!(
            e.num_cold_segments() >= 2,
            "fixture must leave several cold segments"
        );
        drop(e);
        Fixture {
            base,
            pristine,
            query,
        }
    })
}

/// One healing run: copy the pristine lake, flip `bit` of a chosen byte of
/// a chosen cold segment, scrub, and require detection + quarantine +
/// bit-identical rebuild, durable across a reopen.
fn flip_and_heal(seg_choice: usize, byte_choice: u64, bit: u8) {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let fix = fixture();
    let dir = fix
        .base
        .join(format!("victim-{}", CASE.fetch_add(1, Ordering::Relaxed)));
    copy_dir(&fix.pristine, &dir);

    // Open first, corrupt after: recovery reads would reject the corrupt
    // file before a scrub could run (`fault_sweep_bitflip_on_every_recovery_read`
    // covers that path).
    let mut victim = Engine::open(&dir, config(2000)).unwrap();
    let control = Engine::open(&fix.pristine, config(2000)).unwrap();

    let segs = seg_files(&dir);
    let name = segs[seg_choice % segs.len()].clone();
    let mut bytes = std::fs::read(dir.join(&name)).unwrap();
    let idx = (byte_choice % bytes.len() as u64) as usize;
    bytes[idx] ^= 1 << (bit % 8);
    std::fs::write(dir.join(&name), &bytes).unwrap();

    let report = victim.scrub().unwrap();
    assert!(report.corruptions_found >= 1, "flip must be detected");
    assert_eq!(report.segments_quarantined, 1);
    assert_eq!(report.segments_rebuilt, 1);
    assert_eq!(report.segments_checked, segs.len());

    // The corrupt bytes are preserved verbatim for forensics; the live
    // stack replaces the file under a fresh segment id.
    let quarantined = dir.join("quarantine").join(&name);
    assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
    assert!(!dir.join(&name).exists(), "corrupt file left in the stack");

    // Healed in place: discovery-bit-identical to the never-corrupted lake.
    assert_engines_identical(&victim, &control, &fix.query);
    let stats = victim.stats();
    assert_eq!(stats.scrub_runs, 1);
    assert!(stats.scrub_corruptions_found >= 1);
    assert_eq!(stats.segments_quarantined, 1);
    assert_eq!(stats.segments_rebuilt, 1);
    assert!(victim.degraded_reason().is_none());

    // A second pass finds nothing left to heal.
    let clean = victim.scrub().unwrap();
    assert_eq!(clean.corruptions_found, 0);
    assert_eq!(clean.segments_quarantined, 0);

    // The heal is durable: a reopen from disk sees the rebuilt segment.
    drop(victim);
    let reopened = Engine::open(&dir, config(2000)).unwrap();
    assert_engines_identical(&reopened, &control, &fix.query);
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any single flipped bit in any cold segment is detected, the file
    /// quarantined, and the segment rebuilt discovery-bit-identically.
    #[test]
    fn any_flipped_bit_in_any_cold_segment_is_healed(
        seg_choice in 0usize..1024,
        byte_choice in 0u64..u64::MAX,
        bit in 0u8..8,
    ) {
        flip_and_heal(seg_choice, byte_choice, bit);
    }
}

/// A corrupt corpus delta chain cannot rebuild segments, but the live
/// corpus can still write a fresh full checkpoint: scrub falls back to it
/// and the lake stays serving and durable.
#[test]
fn corrupt_delta_chain_falls_back_to_full_checkpoint() {
    let (records, query) = lake_workload(131);
    let base = tmpdir("delta");
    let dir = base.join("victim");

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
    for r in &records {
        e.apply(r.clone()).unwrap();
        e.flush().unwrap();
    }
    assert!(e.stats().deltas_written >= 1, "chain must be non-empty");
    let deltas: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("cdelta-"))
        .collect();
    assert!(!deltas.is_empty());
    let victim_file = dir.join(&deltas[0]);
    let mut bytes = std::fs::read(&victim_file).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&victim_file, &bytes).unwrap();

    let report = e.scrub().unwrap();
    assert!(report.corruptions_found >= 1);
    assert!(
        report.checkpoint_rewritten,
        "chain replaced by a checkpoint"
    );
    assert!(e.degraded_reason().is_none());
    assert_engines_identical(&e, &control, &query);

    // Durable: the rewritten checkpoint carries a reopen.
    drop(e);
    let reopened = Engine::open(&dir, config(1 << 30)).unwrap();
    assert_engines_identical(&reopened, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// A corrupt on-disk manifest (damaged *after* open — at open it would be
/// rejected) is rewritten from the live in-memory state.
#[test]
fn corrupt_manifest_is_rewritten_from_live_state() {
    let (records, query) = lake_workload(137);
    let base = tmpdir("manifest");
    let dir = base.join("victim");

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    let mut e = Engine::create(&dir, config(2000)).unwrap();
    for r in &records {
        e.apply(r.clone()).unwrap();
    }
    e.flush().unwrap();

    let manifest = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&manifest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&manifest, &bytes).unwrap();

    let report = e.scrub().unwrap();
    assert!(report.corruptions_found >= 1);
    assert!(report.manifest_rewritten);
    assert_engines_identical(&e, &control, &query);
    drop(e);
    let reopened = Engine::open(&dir, config(2000)).unwrap();
    assert_engines_identical(&reopened, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// `scrub_every_flushes` runs the pass automatically from the flush path,
/// and a clean lake reports clean.
#[test]
fn periodic_scrub_hook_runs_from_the_flush_path() {
    let (records, _query) = lake_workload(139);
    let base = tmpdir("hook");
    let cfg = EngineConfig {
        scrub_every_flushes: 1,
        ..config(2000)
    };
    let mut e = Engine::create(base.join("victim"), cfg).unwrap();
    for r in &records {
        e.apply(r.clone()).unwrap();
    }
    let stats = e.stats();
    assert!(stats.flushes >= 2, "budget must force flushes");
    assert!(stats.scrub_runs >= 2, "hook must fire after flushes");
    assert_eq!(stats.scrub_corruptions_found, 0);
    assert_eq!(stats.segments_quarantined, 0);
    assert_eq!(stats.io_errors_injected, 0, "StdVfs injects nothing");
    std::fs::remove_dir_all(base).ok();
}

/// The concurrent handle surfaces scrub and its counters:
/// [`EngineLake::scrub`] heals a corrupted segment under the write lock
/// and [`EngineLake::stats`] reports the new counters.
#[test]
fn lake_scrub_heals_and_reports_counters() {
    let (records, query) = lake_workload(149);
    let base = tmpdir("lake");
    let dir = base.join("victim");

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    let lake = EngineLake::create(&dir, config(2000)).unwrap();
    for r in &records {
        lake.apply(r.clone()).unwrap();
    }
    lake.flush().unwrap();
    let segs = seg_files(&dir);
    assert!(!segs.is_empty());
    let victim_file = dir.join(&segs[0]);
    let mut bytes = std::fs::read(&victim_file).unwrap();
    let third = bytes.len() / 3;
    bytes[third] ^= 0x02;
    std::fs::write(&victim_file, &bytes).unwrap();

    let report = lake.scrub().unwrap();
    assert!(report.corruptions_found >= 1);
    assert_eq!(report.segments_rebuilt, 1);
    let stats = lake.stats();
    assert!(stats.scrub_runs >= 1);
    assert!(stats.scrub_corruptions_found >= 1);
    assert_eq!(stats.segments_quarantined, 1);
    assert_eq!(stats.segments_rebuilt, 1);
    assert!(dir.join("quarantine").join(&segs[0]).exists());

    // Reads through the healed lake match the never-corrupted control.
    let engine = lake.into_engine();
    assert_engines_identical(&engine, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// Flips one byte in the middle of `path` (on disk, behind the engine).
fn corrupt_middle_byte(path: &Path) {
    let mut bytes = std::fs::read(path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(path, &bytes).unwrap();
}

/// Faults under scrub's own commits. With one cold segment and one
/// `cdelta-*` file corrupted on disk, a scrub must heal the checkpoint
/// chain (a forced-full flush while the memtable holds tables, a direct
/// checkpoint write when it is empty) and rebuild the segment. Fail the
/// Nth I/O op of that scrub, for every N: the call never panics and any
/// error is typed. An engine that did not degrade heals on a fault-free
/// second scrub and reopens bit-identical to the control; a degraded one
/// still serves reads bit-identical to the control.
#[test]
fn fault_sweep_over_scrub_heal_and_rebuild() {
    let (records, query) = lake_workload(151);
    let base = tmpdir("sweep");
    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    for memtable_tail in [true, false] {
        let pristine = base.join(format!("pristine-{memtable_tail}"));
        {
            let mut e = Engine::create(&pristine, config(2000)).unwrap();
            for r in &records {
                e.apply(r.clone()).unwrap();
            }
            if !memtable_tail {
                e.flush().unwrap();
            }
            assert!(e.num_cold_segments() >= 2, "budget must force flushes");
            assert!(e.stats().deltas_written >= 1, "flushes must write deltas");
        }
        let delta = std::fs::read_dir(&pristine)
            .unwrap()
            .flatten()
            .map(|f| f.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("cdelta-"))
            .min()
            .unwrap();
        let seg = seg_files(&pristine)[0].clone();

        let mut n = 0u64;
        loop {
            n += 1;
            let dir = base.join(format!("tail{memtable_tail}-n{n}"));
            copy_dir(&pristine, &dir);
            let fault = Arc::new(FaultVfs::new());
            let cfg = EngineConfig {
                vfs: Arc::new(Arc::clone(&fault)),
                ..config(2000)
            };
            let mut e = Engine::open(&dir, cfg).unwrap();
            corrupt_middle_byte(&dir.join(&seg));
            corrupt_middle_byte(&dir.join(&delta));
            fault.fail_nth(n);
            let first = e.scrub();
            let fired = fault.injected() > 0;
            fault.disarm_all();
            if let Err(err) = &first {
                assert!(
                    matches!(err, EngineError::Degraded { .. } | EngineError::IoAt { .. }),
                    "tail={memtable_tail} op {n}: untyped scrub error: {err:?}"
                );
            }
            if e.degraded_reason().is_some() {
                assert!(first.is_err(), "op {n}: degraded without an error");
                assert_engines_identical(&e, &control, &query);
            } else {
                let second = e.scrub().unwrap_or_else(|err| {
                    panic!("tail={memtable_tail} op {n}: fault-free scrub failed: {err}")
                });
                if first.is_ok() {
                    assert_eq!(
                        second.corruptions_found, 0,
                        "op {n}: first pass left damage"
                    );
                }
                assert_engines_identical(&e, &control, &query);
                drop(e);
                let reopened = Engine::open(&dir, config(2000)).unwrap_or_else(|err| {
                    panic!("tail={memtable_tail} op {n}: clean reopen failed: {err}")
                });
                assert_engines_identical(&reopened, &control, &query);
            }
            std::fs::remove_dir_all(&dir).ok();
            if !fired {
                let report = first.expect("no fault fired; scrub must heal");
                assert!(report.checkpoint_rewritten);
                assert!(report.segments_rebuilt >= 1);
                assert!(n > 20, "sweep ended after only {n} ops");
                break;
            }
        }
    }
    std::fs::remove_dir_all(base).ok();
}

/// The `corpus_gen` the on-disk manifest names (the checkpoint generation).
fn checkpoint_gen(dir: &Path) -> u64 {
    mate_index::engine::Manifest::load(dir.join("MANIFEST"))
        .unwrap()
        .corpus_gen
}

/// A failed read is an I/O error, not corruption. Over a clean lake, fail
/// the Nth read of one scrub, for every N: the scrub either passes clean
/// or returns the typed I/O error — it never quarantines a segment,
/// rewrites the checkpoint, or counts a corruption — and a fault-free
/// scrub afterwards still finds nothing while discovery stays
/// bit-identical.
#[test]
fn read_fault_sweep_over_a_clean_scrub_heals_nothing() {
    use mate_storage::vfs::{Fault, FaultMode, OpClass};

    let (records, query) = lake_workload(157);
    let base = tmpdir("readfault");
    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    let dir = base.join("victim");
    let fault = Arc::new(FaultVfs::new());
    let cfg = EngineConfig {
        vfs: Arc::new(Arc::clone(&fault)),
        ..config(1000)
    };
    let mut e = Engine::create(&dir, cfg).unwrap();
    for r in &records {
        e.apply(r.clone()).unwrap();
    }
    e.flush().unwrap();
    assert!(e.num_cold_segments() >= 4, "budget must force flushes");
    let gen = checkpoint_gen(&dir);

    let mut n = 0u64;
    loop {
        n += 1;
        let injected = fault.injected();
        fault.arm(Fault {
            class: OpClass::Read,
            nth: n,
            mode: FaultMode::Error(std::io::ErrorKind::Other),
            sticky: false,
        });
        let first = e.scrub();
        let fired = fault.injected() > injected;
        fault.disarm_all();
        match &first {
            Ok(report) => assert_eq!(report.corruptions_found, 0, "read {n}: {report:?}"),
            Err(err) => assert!(
                matches!(err, EngineError::IoAt { .. }),
                "read {n}: scrub error is not the read fault: {err:?}"
            ),
        }
        assert!(e.degraded_reason().is_none(), "read {n}: degraded");
        assert!(
            !dir.join("quarantine").exists()
                || std::fs::read_dir(dir.join("quarantine"))
                    .unwrap()
                    .next()
                    .is_none(),
            "read {n}: a segment was quarantined"
        );
        assert_eq!(checkpoint_gen(&dir), gen, "read {n}: checkpoint rewritten");
        assert_eq!(e.stats().scrub_corruptions_found, 0, "read {n}");

        let clean = e.scrub().unwrap();
        assert_eq!(clean.corruptions_found, 0, "read {n}: clean scrub");
        assert_engines_identical(&e, &control, &query);
        if !fired {
            assert!(first.is_ok());
            assert!(n > 4, "sweep ended after only {n} reads");
            break;
        }
    }
    std::fs::remove_dir_all(base).ok();
}
