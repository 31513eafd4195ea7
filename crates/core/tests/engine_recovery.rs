//! Kill-at-any-point recovery acceptance for the multi-segment engine.
//!
//! The engine acknowledges a mutation once its WAL record is fsynced. These
//! tests kill the engine (drop without flush — the engine has no `Drop`
//! hook, so this is crash-equivalent for everything except OS-level page
//! cache loss, which the fsync discipline covers) at *every* record
//! boundary and mid-record, reopen, and require the recovered engine to be
//! discovery-bit-identical to an engine that was never killed.

use mate_core::{discover_snapshot, MateConfig};
use mate_index::engine::{Engine, EngineConfig, EngineError, EngineLake};
use mate_index::WalRecord;
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_storage::FaultVfs;
use mate_table::{ColId, Corpus, RowId, Table, TableId};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mate-engine-rec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(budget: usize) -> EngineConfig {
    EngineConfig {
        memtable_budget_bytes: budget,
        max_cold_segments: 0,
        ..EngineConfig::default()
    }
}

/// A small lake plus an edit tail (insert/update/delete mix).
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
    let ncols = corpus.table(TableId(0)).num_cols();
    records.push(WalRecord::InsertRow {
        table: TableId(0),
        cells: (0..ncols).map(|c| format!("late-{c}")).collect(),
    });
    (records, query)
}

/// Both engines must be indistinguishable: same discovery output (scores,
/// order, counters), same corpus, same posting totals.
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

/// A corrupt link of the checkpoint delta chain fails the reopen with an
/// error that names the file, not a generic frame error.
#[test]
fn corrupt_delta_record_error_names_its_file() {
    let (records, _query) = lake_workload(13);
    let dir = tmpdir("cdelta-name");
    {
        let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
        for r in records.iter().take(4) {
            e.apply(r.clone()).unwrap();
        }
        e.flush().unwrap();
    }
    let name = "cdelta-00000000-00000001.seg";
    let path = dir.join(name);
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let Err(err) = Engine::open(&dir, config(1 << 30)) else {
        panic!("a corrupt delta record must fail the reopen");
    };
    assert!(
        err.to_string().contains(name),
        "error does not name {name}: {err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Kill with WAL synced and *no flush* at every record boundary: reopening
/// must recover every acknowledged mutation, and finishing the workload
/// must land in exactly the never-killed state.
#[test]
fn kill_at_every_record_boundary_without_flush() {
    let (records, query) = lake_workload(11);
    let base = tmpdir("boundary");

    // Control: never killed.
    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    // Check a spread of cut points including none and all.
    let cuts = [
        0,
        1,
        records.len() / 3,
        records.len() / 2,
        records.len() - 1,
        records.len(),
    ];
    for (i, &cut) in cuts.iter().enumerate() {
        let dir = base.join(format!("cut{i}"));
        {
            let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
            for r in &records[..cut] {
                e.apply(r.clone()).unwrap();
            }
            assert_eq!(e.num_cold_segments(), 0, "budget must prevent flushes");
            // Killed here: dropped with all state in manifest + WAL only.
        }
        let mut recovered = Engine::open(&dir, config(1 << 30)).unwrap();
        assert_eq!(recovered.stats().replayed_records as usize, cut);
        for r in &records[cut..] {
            recovered.apply(r.clone()).unwrap();
        }
        assert_engines_identical(&recovered, &control, &query);
    }
    std::fs::remove_dir_all(base).ok();
}

/// A kill *mid-append* (torn last record, not yet acknowledged) loses at
/// most that record: recovery lands exactly on the previous boundary.
#[test]
fn kill_mid_append_loses_only_the_torn_record() {
    let (records, query) = lake_workload(23);
    let base = tmpdir("torn");
    let cut = records.len() - 2;

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records[..cut] {
        control.apply(r.clone()).unwrap();
    }

    let dir = base.join("victim");
    {
        let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
        for r in &records[..cut + 1] {
            e.apply(r.clone()).unwrap();
        }
    }
    // Tear the last appended record.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .find(|e| e.file_name().to_string_lossy().starts_with("wal-"))
        .unwrap()
        .path();
    let log = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &log[..log.len() - 5]).unwrap();

    let recovered = Engine::open(&dir, config(1 << 30)).unwrap();
    assert_eq!(recovered.stats().replayed_records as usize, cut);
    assert_engines_identical(&recovered, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// Kill after several flushes: recovery = manifest segments + WAL tail.
/// Compaction then reduces the live segment count while preserving top-k
/// identity, and survives its own kill+reopen.
#[test]
fn recovery_with_flushes_and_compaction_preserves_topk() {
    let (records, query) = lake_workload(37);
    let base = tmpdir("flushes");

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    let dir = base.join("victim");
    {
        let mut e = Engine::create(&dir, config(1500)).unwrap();
        for r in &records {
            e.apply(r.clone()).unwrap();
        }
        assert!(e.stats().flushes >= 2, "tiny budget must force flushes");
        // Killed with segments + WAL tail on disk.
    }
    let mut recovered = Engine::open(&dir, config(1500)).unwrap();
    assert_engines_identical(&recovered, &control, &query);

    let before = recovered.num_cold_segments();
    assert!(before >= 2);
    let merged = recovered.compact().unwrap();
    assert_eq!(merged, before);
    assert_eq!(recovered.num_cold_segments(), 1, "stack folded to one");
    assert_engines_identical(&recovered, &control, &query);

    // Kill again right after compaction; the WAL tail replays over the
    // compacted stack.
    drop(recovered);
    let recovered = Engine::open(&dir, config(1500)).unwrap();
    assert_engines_identical(&recovered, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// Kill at **every corpus-delta-chain boundary**: after each flush the
/// checkpoint state is `corpus-<gen>.seg` ⊕ `cdelta-<gen>-<1..=n>.seg` ⊕
/// the WAL tail. Reopening at every chain length n (plus a trailing
/// unflushed edit) must land bit-identical to a never-killed engine, and
/// a stray delta past the manifest's chain (a flush killed between the
/// delta write and the manifest flip) must be garbage-collected, not
/// replayed.
#[test]
fn kill_at_every_delta_chain_boundary() {
    let (records, query) = lake_workload(53);
    let base = tmpdir("delta-chain");

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for r in &records {
        control.apply(r.clone()).unwrap();
    }

    // Victim: flush after every record, so each record boundary is also a
    // delta-chain boundary — the chain grows by one per flush.
    for cut in 1..=records.len() {
        let dir = base.join(format!("chain{cut}"));
        {
            let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
            for r in &records[..cut] {
                e.apply(r.clone()).unwrap();
                e.flush().unwrap();
            }
            let s = e.stats();
            assert_eq!(
                s.deltas_written + s.checkpoints_skipped,
                cut as u64,
                "every flush extended the chain (or was corpus-clean)"
            );
            // Killed here, mid-chain: manifest references chain length n.
        }
        let mut recovered = Engine::open(&dir, config(1 << 30)).unwrap();
        for r in &records[cut..] {
            recovered.apply(r.clone()).unwrap();
        }
        assert_engines_identical(&recovered, &control, &query);
        std::fs::remove_dir_all(&dir).ok();
    }

    // A flush killed after writing `cdelta-<gen>-<n+1>` but before the
    // manifest flip leaves a stray delta one past the committed chain.
    // Recovery must ignore and delete it.
    let dir = base.join("stray");
    {
        let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
        for r in &records {
            e.apply(r.clone()).unwrap();
        }
        e.flush().unwrap();
    }
    let stray: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|f| f.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("cdelta-"))
        .collect();
    assert!(!stray.is_empty(), "flush must have written a delta");
    std::fs::write(dir.join("cdelta-00000000-00000099.seg"), b"half a delta").unwrap();
    std::fs::write(dir.join("cdelta-00000000-00000099.tmp"), b"tmp residue").unwrap();
    let recovered = Engine::open(&dir, config(1 << 30)).unwrap();
    assert!(!dir.join("cdelta-00000000-00000099.seg").exists());
    assert!(!dir.join("cdelta-00000000-00000099.tmp").exists());
    for n in &stray {
        assert!(dir.join(n).exists(), "referenced chain file {n} kept");
    }
    assert_engines_identical(&recovered, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

/// A kill on either side of a **tiered** (partial) compaction's manifest
/// flip must garbage-collect only the replaced tier's files — never a
/// segment the live manifest still references.
#[test]
fn kill_around_tiered_compaction_gcs_only_the_replaced_tier() {
    let base = tmpdir("tiered");
    let seg_names = |dir: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|f| f.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("seg-") && n.ends_with(".seg"))
            .collect();
        names.sort();
        names
    };

    // Deterministic lake: six same-shape tables, one segment each, plus a
    // post-watermark edit tail (promote + tombstone + insert) left in the
    // WAL.
    let table = |tag: &str| {
        let mut tb = mate_table::TableBuilder::new(format!("t-{tag}"), ["first", "last"]);
        for i in 0..6 {
            tb = tb.row([format!("{tag}-first-{i}"), format!("shared-{}", i % 3)]);
        }
        tb.build()
    };
    let tags = ["a", "b", "c", "d", "e", "f"];
    let tail = vec![
        WalRecord::UpdateCell {
            table: TableId(0),
            row: RowId(1),
            col: ColId(0),
            value: "patched".into(),
        },
        WalRecord::DeleteTable { table: TableId(1) },
        WalRecord::InsertRow {
            table: TableId(2),
            cells: vec!["late-0".into(), "late-1".into()],
        },
    ];
    let query = GeneratedQuery {
        table: mate_table::TableBuilder::new("q", ["x", "y"])
            .row(["a-first-0", "shared-0"])
            .row(["c-first-1", "shared-1"])
            .row(["patched", "shared-1"])
            .build(),
        key: vec![ColId(0), ColId(1)],
        planted_tables: Vec::new(),
        planted_best: 0,
        distinct_tuples: 3,
    };

    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    for tag in tags {
        control.insert_table(table(tag)).unwrap();
    }
    for r in &tail {
        control.apply(r.clone()).unwrap();
    }

    let dir = base.join("victim");
    let cfg = EngineConfig {
        tier_fanout: 2,
        ..config(1 << 30)
    };
    {
        let mut e = Engine::create(&dir, cfg.clone()).unwrap();
        for tag in tags {
            e.insert_table(table(tag)).unwrap();
            e.flush().unwrap();
        }
        for r in &tail {
            e.apply(r.clone()).unwrap();
        }
        assert_eq!(e.num_cold_segments(), 6);
        // Killed with 6 segments + the edit tail in the WAL.
    }

    // (a) Kill BEFORE the flip: the half-written tier output and its tmp
    // residue are orphans; every manifest-referenced input must survive.
    let live_before = seg_names(&dir);
    std::fs::write(dir.join("seg-00000099.seg"), b"half a tier output").unwrap();
    std::fs::write(dir.join("seg-00000099.seg.tmp"), b"tmp residue").unwrap();
    {
        let e = Engine::open(&dir, cfg.clone()).unwrap();
        assert_eq!(seg_names(&dir), live_before, "inputs kept, orphans gone");
        assert_engines_identical(&e, &control, &query);
    }

    // (b) Kill AFTER the flip but before the replaced tier was deleted:
    // resurrect the input files post-compaction and reopen. GC must
    // remove exactly the resurrected inputs and keep the new stack.
    let snapshot: Vec<(String, Vec<u8>)> = live_before
        .iter()
        .map(|n| (n.clone(), std::fs::read(dir.join(n)).unwrap()))
        .collect();
    let mut e = Engine::open(&dir, cfg.clone()).unwrap();
    let merged = e.compact_tiered().unwrap();
    assert!(merged >= 2, "same-shape segments must tier-merge");
    let live_after = seg_names(&dir);
    assert_ne!(live_after, live_before);
    drop(e);
    for (name, bytes) in &snapshot {
        if !dir.join(name).exists() {
            std::fs::write(dir.join(name), bytes).unwrap();
        }
    }
    assert_ne!(seg_names(&dir), live_after, "inputs resurrected");
    let e = Engine::open(&dir, cfg).unwrap();
    assert_eq!(
        seg_names(&dir),
        live_after,
        "GC removed the replaced tier and kept every referenced segment"
    );
    assert_engines_identical(&e, &control, &query);
    std::fs::remove_dir_all(base).ok();
}

// ------------------------------------------------------------------------
// Fault-injection sweeps (the `FaultVfs` harness): fail the Nth I/O call
// of the whole create→ingest→flush→compact workload, for every N, and
// require that the engine (a) never panics, (b) surfaces failures as typed
// `EngineError`s, and (c) after reopening on a clean filesystem recovers
// exactly an acknowledged prefix of the workload — never silently losing
// an acknowledged record, never inventing state.
// ------------------------------------------------------------------------

/// The comparable state of an engine: every corpus table plus the live
/// posting total. Used to match a recovered engine against the canonical
/// state after each record prefix.
type StateSnapshot = (Vec<(TableId, Table)>, usize);

fn state_snapshot(e: &Engine) -> StateSnapshot {
    (
        e.corpus().iter().map(|(tid, t)| (tid, t.clone())).collect(),
        e.live_postings(),
    )
}

/// Builds the never-faulted control engine and records the canonical state
/// after every record prefix (`states[k]` = state after `records[..k]`).
fn build_controls(base: &std::path::Path, records: &[WalRecord]) -> (Vec<StateSnapshot>, Engine) {
    let mut control = Engine::create(base.join("control"), config(1 << 30)).unwrap();
    let mut states = vec![state_snapshot(&control)];
    for r in records {
        control.apply(r.clone()).unwrap();
        states.push(state_snapshot(&control));
    }
    (states, control)
}

/// Which fault the sweep arms on its Nth target operation.
enum SweepFault {
    /// Generic I/O error on the Nth operation of *any* class.
    AnyError,
    /// The Nth write persists only a prefix of its buffer, then fails.
    TornWrite,
    /// The Nth fsync (file or directory, data or full) fails with EIO.
    SyncError,
    /// The Nth write — and, sticky, every later one — fails ENOSPC.
    Enospc,
}

/// The sweep: run the full workload with fault N armed, for N = 1, 2, ...
/// until a run completes without the fault firing (N exceeded the
/// workload's total operation count). After each faulted run, reopen on a
/// clean vfs and require the recovered state to be the acknowledged record
/// prefix (or one past it — a record whose WAL append hit disk before its
/// `apply` returned the error was never acknowledged, and recovering it is
/// allowed; losing an acknowledged one is not). Finishing the workload
/// from there must converge on the control, discovery-bit-identical.
fn run_fault_sweep(tag: &str, sweep: SweepFault) {
    let (records, query) = lake_workload(71);
    let base = tmpdir(tag);
    std::fs::create_dir_all(&base).unwrap();
    let (states, control) = build_controls(&base, &records);
    // Small memtable budget: the workload must cross flush (and delta
    // checkpoint) boundaries so the sweep reaches segment/manifest I/O.
    let budget = 2200;

    let mut n = 0u64;
    loop {
        n += 1;
        let dir = base.join(format!("n{n}"));
        let fault = Arc::new(FaultVfs::new());
        match sweep {
            SweepFault::AnyError => fault.fail_nth(n),
            SweepFault::TornWrite => fault.torn_nth_write(n, n ^ 0x5bd1_e995),
            SweepFault::SyncError => fault.eio_on_nth_sync(n),
            SweepFault::Enospc => fault.enospc_on_nth_write(n),
        }
        let obs = Arc::new(mate_obs::Obs::new());
        let cfg = EngineConfig {
            vfs: Arc::new(Arc::clone(&fault)),
            obs: Arc::clone(&obs),
            ..config(budget)
        };
        let mut acked = 0usize;
        let outcome = (|| -> Result<(), EngineError> {
            let mut e = Engine::create(&dir, cfg)?;
            for r in &records {
                e.apply(r.clone())?;
                acked += 1;
            }
            e.flush()?;
            e.compact()?;
            Ok(())
        })();

        if fault.injected() == 0 {
            // N is past the workload's last operation: nothing fired, so
            // the run must have been the fault-free baseline.
            outcome.expect("no fault fired; the workload itself must succeed");
            assert_eq!(acked, records.len());
            assert!(
                n > 20,
                "sweep ended after only {n} ops — workload too small"
            );
            std::fs::remove_dir_all(&dir).ok();
            break;
        }
        // The fault fired. `outcome` is either a typed error or — for an
        // advisory operation (directory-sync hardening, old-file cleanup,
        // where the commit point already passed) — a survived run. Either
        // way: reopen on a clean production vfs and check the contract.
        let _ = &outcome;
        // The engine's obs hub (attached to the FaultVfs inside
        // `Engine::create`) must let an operator reconstruct the failure:
        // the mirrored counter matches the harness count exactly, and each
        // injection logged an event naming the op class and the file it hit.
        let obs_snap = obs.snapshot();
        assert_eq!(
            obs_snap
                .counters
                .iter()
                .find(|(name, _)| name == "vfs.faults_injected")
                .map(|&(_, v)| v),
            Some(fault.injected()),
            "op {n}: injected-fault counter out of sync"
        );
        let fault_events: Vec<_> = obs_snap
            .events
            .iter()
            .filter(|e| e.kind == "fault_injected")
            .collect();
        assert!(
            !fault_events.is_empty(),
            "op {n}: fault fired but no event recorded"
        );
        let dir_str = dir.display().to_string();
        for ev in &fault_events {
            assert!(
                ["Read", "Write", "Sync", "Meta"]
                    .iter()
                    .any(|op| ev.detail.starts_with(op)),
                "op {n}: event lacks op-class context: {}",
                ev.detail
            );
            assert!(
                ev.detail.contains(&dir_str),
                "op {n}: event lacks path context: {}",
                ev.detail
            );
        }
        if !dir.join("MANIFEST").exists() {
            // Creation itself was interrupted before its commit point.
            assert_eq!(
                acked, 0,
                "op {n}: records acked but creation never committed"
            );
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let mut reopened = Engine::open(&dir, config(budget))
            .unwrap_or_else(|e| panic!("op {n}: reopen on a clean vfs failed: {e}"));
        let snap = state_snapshot(&reopened);
        let hi = (acked + 1).min(records.len());
        let k = (acked..=hi)
            .find(|&k| states[k] == snap)
            .unwrap_or_else(|| {
                panic!("op {n}: recovered state is not an acknowledged prefix (acked {acked})")
            });
        for r in &records[k..] {
            reopened.apply(r.clone()).unwrap();
        }
        assert_engines_identical(&reopened, &control, &query);
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn fault_sweep_generic_error_on_every_io_op() {
    run_fault_sweep("sweep-any", SweepFault::AnyError);
}

#[test]
fn fault_sweep_torn_write_on_every_write() {
    run_fault_sweep("sweep-torn", SweepFault::TornWrite);
}

#[test]
fn fault_sweep_eio_on_every_fsync() {
    run_fault_sweep("sweep-sync", SweepFault::SyncError);
}

#[test]
fn fault_sweep_sticky_enospc_on_every_write() {
    run_fault_sweep("sweep-enospc", SweepFault::Enospc);
}

/// A silent single-bit flip on each read that recovery performs: `open`
/// must either fail with a typed error (CRC framing catches the flip in a
/// manifest, checkpoint, or segment) or come up on a record-prefix state —
/// a flip inside the WAL tail is indistinguishable from a torn append, so
/// recovery may legitimately trim back to an earlier record boundary, but
/// it must never serve corrupted data or panic.
#[test]
fn fault_sweep_bitflip_on_every_recovery_read() {
    let (records, query) = lake_workload(71);
    let base = tmpdir("sweep-flip");
    std::fs::create_dir_all(&base).unwrap();
    let (states, control) = build_controls(&base, &records);

    // Build the pristine on-disk engine once, with real cold segments and
    // a non-empty WAL tail (records after the last flush stay in the log).
    let pristine = base.join("pristine");
    {
        let mut e = Engine::create(&pristine, config(2200)).unwrap();
        for r in &records {
            e.apply(r.clone()).unwrap();
        }
        assert!(e.stats().flushes >= 2, "budget must force flushes");
        assert!(e.stats().wal_records as usize > 0);
    }

    let mut n = 0u64;
    let mut typed_failures = 0u64;
    loop {
        n += 1;
        // Recovery may trim a WAL whose read came back corrupted, so each
        // iteration works on its own copy of the pristine directory.
        let dir = base.join(format!("flip{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        for name in std::fs::read_dir(&pristine).unwrap().flatten() {
            std::fs::copy(name.path(), dir.join(name.file_name())).unwrap();
        }
        let fault = Arc::new(FaultVfs::new());
        fault.bitflip_nth_read(n, n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let cfg = EngineConfig {
            vfs: Arc::new(Arc::clone(&fault)),
            ..config(2200)
        };
        let opened = Engine::open(&dir, cfg);
        let fired = fault.injected() > 0;
        match opened {
            Ok(mut e) => {
                let snap = state_snapshot(&e);
                let k = (0..=records.len())
                    .find(|&k| states[k] == snap)
                    .unwrap_or_else(|| panic!("read {n}: recovered state is no record prefix"));
                for r in &records[k..] {
                    e.apply(r.clone()).unwrap();
                }
                assert_engines_identical(&e, &control, &query);
            }
            Err(err) => {
                assert!(
                    fired,
                    "read {n}: open failed without an injected flip: {err}"
                );
                typed_failures += 1;
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        if !fired {
            break;
        }
    }
    assert!(n > 5, "recovery performs more reads than {n}");
    assert!(
        typed_failures > 0,
        "at least one flip must land in CRC-protected bytes and be rejected"
    );
    std::fs::remove_dir_all(base).ok();
}

// ------------------------------------------------------------------------
// Keep-writing sweeps: a flush or a compaction that fails at any I/O op
// must leave the engine both writable and consistent with the manifest on
// disk. A record acknowledged *after* the failed maintenance call, on the
// same engine, must survive a reopen.
// ------------------------------------------------------------------------

/// The maintenance call a keep-writing run puts the fault under.
#[derive(Clone, Copy, Debug)]
enum Maintenance {
    Flush,
    Compact,
}

/// The engine-or-lake handle of one keep-writing run.
enum Handle {
    /// The single-threaded [`Engine`].
    Engine(Box<Engine>),
    /// The concurrent [`EngineLake`], whose `flush` and `compact` report
    /// an error without poisoning the lake.
    Lake(Box<EngineLake>),
}

impl Handle {
    fn apply(&mut self, r: WalRecord) -> Result<(), EngineError> {
        match self {
            Handle::Engine(e) => e.apply(r),
            Handle::Lake(l) => l.apply(r),
        }
    }

    fn flush(&mut self) -> Result<bool, EngineError> {
        match self {
            Handle::Engine(e) => e.flush(),
            Handle::Lake(l) => l.flush(),
        }
    }

    fn compact(&mut self) -> Result<usize, EngineError> {
        match self {
            Handle::Engine(e) => e.compact(),
            Handle::Lake(l) => l.compact(),
        }
    }
}

/// For every N and each maintenance call: build an engine holding two
/// cold segments and a non-empty memtable, arm `fail_nth(N)`, run the
/// call, then `apply` one extra record on the same engine. The extra is a
/// copy of a planted joinable table, so losing it moves discovery, not
/// just the corpus. Reopen on a clean vfs: an acknowledged extra must be
/// present, and the recovered engine must be discovery-bit-identical to
/// the never-faulted control holding the same records.
fn run_keep_writing_sweep(tag: &str, lake: bool) {
    let (records, query) = lake_workload(71);
    let base = tmpdir(tag);
    std::fs::create_dir_all(&base).unwrap();
    let extra = match &records[query.planted_tables[0].index()] {
        WalRecord::InsertTable { table } => {
            let mut table = table.clone();
            table.name = "extra".to_string();
            WalRecord::InsertTable { table }
        }
        _ => unreachable!("the workload inserts every table first"),
    };
    // controls[0] holds the workload, controls[1] the workload + extra.
    let controls: Vec<Engine> = (0..2)
        .map(|with_extra| {
            let dir = base.join(format!("control{with_extra}"));
            let mut c = Engine::create(dir, config(1 << 30)).unwrap();
            for r in records.iter().chain((with_extra == 1).then_some(&extra)) {
                c.apply(r.clone()).unwrap();
            }
            c
        })
        .collect();
    let control_states: Vec<StateSnapshot> = controls.iter().map(state_snapshot).collect();

    let flush_after = [records.len() / 3, 2 * records.len() / 3];
    for step in [Maintenance::Flush, Maintenance::Compact] {
        let mut n = 0u64;
        loop {
            n += 1;
            let dir = base.join(format!("{step:?}-n{n}"));
            let fault = Arc::new(FaultVfs::new());
            let cfg = EngineConfig {
                vfs: Arc::new(Arc::clone(&fault)),
                ..config(1 << 30)
            };
            let mut h = if lake {
                Handle::Lake(Box::new(EngineLake::create(&dir, cfg).unwrap()))
            } else {
                Handle::Engine(Box::new(Engine::create(&dir, cfg).unwrap()))
            };
            for (i, r) in records.iter().enumerate() {
                h.apply(r.clone()).unwrap();
                if flush_after.contains(&(i + 1)) {
                    h.flush().unwrap();
                }
            }
            fault.fail_nth(n);
            let outcome = match step {
                Maintenance::Flush => h.flush().map(|_| ()),
                Maintenance::Compact => h.compact().map(|n| assert!(n >= 2, "stack of >= 2")),
            };
            let acked = h.apply(extra.clone()).is_ok();
            drop(h);
            let fired = fault.injected() > 0;

            let reopened = Engine::open(&dir, config(1 << 30))
                .unwrap_or_else(|e| panic!("{step:?} op {n}: reopen on a clean vfs failed: {e}"));
            let snap = state_snapshot(&reopened);
            let with_extra = (0..2)
                .find(|&k| control_states[k] == snap)
                .unwrap_or_else(|| panic!("{step:?} op {n}: recovered state matches no control"));
            assert!(
                !acked || with_extra == 1,
                "{step:?} op {n}: acknowledged record lost on reopen \
                 (maintenance outcome: {outcome:?})"
            );
            assert_engines_identical(&reopened, &controls[with_extra], &query);
            drop(reopened);
            std::fs::remove_dir_all(&dir).ok();
            if !fired {
                outcome.expect("no fault fired; the maintenance call must succeed");
                assert!(acked, "fault-free run must acknowledge the extra");
                assert!(n > 10, "{step:?} sweep ended after only {n} ops");
                break;
            }
        }
    }
    std::fs::remove_dir_all(base).ok();
}

#[test]
fn fault_sweep_keep_writing_after_failed_flush_or_compact() {
    run_keep_writing_sweep("keep-engine", false);
}

#[test]
fn fault_sweep_keep_writing_after_failed_lake_flush_or_compact() {
    run_keep_writing_sweep("keep-lake", true);
}

// ------------------------------------------------------------------------
// Malformed records: a record that does not fit the corpus is refused
// before its WAL frame is written, so neither the write nor any later
// reopen panics on it.
// ------------------------------------------------------------------------

/// Bytes in the engine's WAL files.
fn wal_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|f| f.file_name().to_string_lossy().starts_with("wal-"))
        .map(|f| f.metadata().unwrap().len())
        .sum()
}

/// A record that cannot fit `corpus`: `kind` picks the check it fails,
/// `pick` the target table, `extra` how far out of range it reaches.
fn malformed(corpus: &Corpus, kind: u8, pick: usize, extra: u32) -> WalRecord {
    let n = corpus.len();
    let t = TableId::from(pick % n.max(1));
    let (rows, cols) = corpus
        .get(t)
        .map_or((0, 0), |t| (t.num_rows() as u32, t.num_cols() as u32));
    let past = |len: u32| len + extra;
    match kind {
        _ if n == 0 || kind == 0 => WalRecord::DeleteTable {
            table: TableId(n as u32 + extra),
        },
        1 => WalRecord::InsertRow {
            table: t,
            cells: vec!["x".to_string(); (cols + 1 + extra) as usize],
        },
        2 => WalRecord::InsertColumn {
            table: t,
            name: "bad".to_string(),
            values: vec!["x".to_string(); (rows + 1 + extra) as usize],
        },
        3 => WalRecord::UpdateCell {
            table: t,
            row: RowId(past(rows)),
            col: ColId(0),
            value: "x".to_string(),
        },
        4 => WalRecord::UpdateCell {
            table: t,
            row: RowId(0),
            col: ColId(past(cols)),
            value: "x".to_string(),
        },
        5 => WalRecord::DeleteRow {
            table: t,
            row: RowId(past(rows)),
        },
        _ => WalRecord::DeleteColumn {
            table: t,
            col: ColId(past(cols)),
        },
    }
}

/// The reproduction of the lost-lake bug: a 2-row table, then an
/// `InsertColumn` of one value. The apply returns a typed error, the
/// frame never reaches the log, and a reopen sees the one table. The same
/// holds for a row or a column of values sent to a deleted table.
#[test]
fn short_insert_column_is_refused_before_the_log() {
    let dir = tmpdir("short-column");
    let table = mate_table::TableBuilder::new("t", ["a"])
        .row(["x"])
        .row(["y"])
        .build();
    {
        let mut e = Engine::create(&dir, config(1 << 30)).unwrap();
        e.apply(WalRecord::InsertTable { table }).unwrap();
        let before = wal_bytes(&dir);
        let err = e
            .apply(WalRecord::InsertColumn {
                table: TableId(0),
                name: "b".to_string(),
                values: vec!["z".to_string()],
            })
            .unwrap_err();
        assert!(err.to_string().contains("wal column length"), "{err}");
        assert_eq!(wal_bytes(&dir), before, "no frame reached the log");
        assert_eq!(e.corpus().table(TableId(0)).num_cols(), 1);
        // A deleted table keeps its id but has no columns and no rows: it
        // takes neither a row nor a column of values.
        e.apply(WalRecord::DeleteTable { table: TableId(0) })
            .unwrap();
        let before = wal_bytes(&dir);
        for bad in [
            WalRecord::InsertRow {
                table: TableId(0),
                cells: vec![],
            },
            WalRecord::InsertColumn {
                table: TableId(0),
                name: "b".to_string(),
                values: vec!["z".to_string()],
            },
        ] {
            assert!(e.apply(bad).is_err());
        }
        assert_eq!(wal_bytes(&dir), before, "no frame reached the log");
    }
    let e = Engine::open(&dir, config(1 << 30)).unwrap();
    assert_eq!(e.corpus().len(), 1);
    assert_eq!(e.stats().replayed_records, 2);
    drop(e);

    // A CRC-valid frame of the same record written straight into the log
    // (not by the engine) fails the reopen with a typed error naming the
    // WAL file and the frame's offset.
    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|f| f.path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("wal-"))
        .unwrap();
    let offset = std::fs::metadata(&wal).unwrap().len();
    let mut log = std::fs::read(&wal).unwrap();
    log.extend(mate_index::wal::frame_record(&WalRecord::InsertColumn {
        table: TableId(0),
        name: "b".to_string(),
        values: vec!["z".to_string()],
    }));
    std::fs::write(&wal, log).unwrap();
    let Err(err) = Engine::open(&dir, config(1 << 30)) else {
        panic!("a malformed replayed record must fail the open");
    };
    assert!(
        matches!(&err, EngineError::InFileAt { path, offset: at, .. }
            if *path == wal && *at == offset),
        "{err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]

    /// Random malformed records fed to an `Engine` and to an `EngineLake`
    /// between the records of a valid workload: every one is refused
    /// without a panic and without growing the log, and a reopen is
    /// discovery-bit-identical to an engine that never saw them.
    #[test]
    fn malformed_records_never_reach_the_log(
        seed in 0u64..1_000,
        bad in proptest::collection::vec((0usize..64, 0u8..7, 0u32..3), 1..10),
    ) {
        let (records, query) = lake_workload(seed);
        let base = tmpdir(&format!("malformed-{seed}"));
        for lake in [false, true] {
            let dir = base.join(if lake { "lake" } else { "engine" });
            let mut reference = Engine::create(dir.with_extension("reference"), config(1 << 30))
                .unwrap();
            let mut handle = if lake {
                Handle::Lake(Box::new(EngineLake::create(&dir, config(1 << 30)).unwrap()))
            } else {
                Handle::Engine(Box::new(Engine::create(&dir, config(1 << 30)).unwrap()))
            };
            for (i, r) in records.iter().enumerate() {
                for &(_, kind, extra) in bad.iter().filter(|b| b.0 % records.len() == i) {
                    let rec = malformed(reference.corpus(), kind, i + extra as usize, extra);
                    let before = wal_bytes(&dir);
                    let refused = match &handle {
                        // `apply_many` stops at the bad record.
                        Handle::Lake(l) if kind % 2 == 0 => l.apply_many([rec.clone()]),
                        _ => handle.apply(rec.clone()),
                    };
                    proptest::prop_assert!(refused.is_err(), "{:?} was accepted", rec);
                    proptest::prop_assert_eq!(wal_bytes(&dir), before);
                }
                handle.apply(r.clone()).unwrap();
                reference.apply(r.clone()).unwrap();
            }
            drop(handle);
            let reopened = Engine::open(&dir, config(1 << 30)).unwrap();
            assert_engines_identical(&reopened, &reference, &query);
        }
        std::fs::remove_dir_all(base).ok();
    }
}
