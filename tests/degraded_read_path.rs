//! The kill-switch demo: the fault-tolerant read path end to end, on a
//! real store file with real corruption.
//!
//! One extent of one attribute's index is corrupted on disk. A verified
//! pooled fetch detects it (checksum trailer mismatch at fault-in), the
//! executor quarantines the extent and degrades that attribute to a
//! table-scan fallback — the conjunctive query still completes with the
//! exact reference rows. `rebuild_attribute` then swaps in a fresh index,
//! clears the quarantine, and the post-rebuild query costs exactly what a
//! never-corrupted table costs. The scrubber finds the same corruption
//! offline within its per-tick block budget, and verification itself is
//! free on the simulated cost model: identical `IoStats` and identical
//! cold fetch counts with the checksum on or off, and warm hits never
//! re-verify (zero new real fetches on replay).

use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use psi::io::{ErrorClass, Scrubber};
use psi::query::{CombineStrategy, IndexedColumn, QueryError};
use psi::store::format::read_header;
use psi::store::{open, save, Backend, OpenOptions, Opened, PersistIndex};
use psi::workloads::{people_table, Table};
use psi::{IndexedTable, IoConfig, OptimalIndex, Predicate, SecondaryIndex, Symbol};

fn cfg() -> IoConfig {
    IoConfig::with_block_bits(512)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("psi_degraded_read").join(name);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn build_optimal(symbols: &[Symbol], sigma: u32) -> Box<dyn SecondaryIndex> {
    Box::new(OptimalIndex::build(symbols, sigma, cfg()))
}

fn col_path(dir: &Path, attr: &str) -> PathBuf {
    dir.join(format!("col_{attr}.psi"))
}

fn save_columns(table: &Table, dir: &Path) {
    for col in &table.columns {
        let index = OptimalIndex::build(&col.data, col.sigma, cfg());
        save(&index, col_path(dir, &col.name)).expect("save column index");
    }
}

fn open_opts(verify: bool) -> OpenOptions {
    OpenOptions {
        backend: Backend::File,
        pool_blocks: 4096,
        retry: None,
        verify,
    }
}

fn open_column(dir: &Path, attr: &str, verify: bool) -> Opened<OptimalIndex> {
    open::<OptimalIndex>(&col_path(dir, attr), &open_opts(verify)).expect("open column index")
}

/// Opens every column index from `dir` (verified fetches on) and attaches
/// the source data, arming the scan fallback.
fn indexed_from_files(table: &Table, dir: &Path) -> IndexedTable {
    let columns = table
        .columns
        .iter()
        .map(|col| IndexedColumn {
            name: col.name.clone(),
            sigma: col.sigma,
            index: Box::new(open_column(dir, &col.name, true).index) as Box<dyn SecondaryIndex>,
        })
        .collect();
    let mut indexed = IndexedTable::from_columns(columns);
    for col in &table.columns {
        indexed
            .attach_column_data(&col.name, col.data.clone())
            .expect("attach source");
    }
    indexed
}

/// Flips one payload byte in every block of every live extent of the
/// store file at `path`, so any verified payload fetch detects the
/// damage. Header and metadata pages are untouched — the file still
/// opens. Returns the number of blocks corrupted.
fn corrupt_all_payload(path: &Path) -> u64 {
    corrupt_payload(path, false)
}

/// [`corrupt_all_payload`], or with `last_only` just the last block of
/// each live extent: reads of the leading blocks still verify, so a
/// query fails part-way through a cover.
fn corrupt_payload(path: &Path, last_only: bool) -> u64 {
    let (_, header) = read_header(path).expect("read store header");
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .expect("open store file for corruption");
    let mut corrupted = 0;
    for volume in &header.volumes {
        let page = volume.page_bytes();
        for ext in &volume.extents {
            if ext.freed || ext.file_off == u64::MAX {
                continue;
            }
            let blocks = ext.bit_len.div_ceil(volume.config.block_bits).max(1);
            let first = if last_only { blocks - 1 } else { 0 };
            for b in first..blocks {
                let off = ext.file_off + b * page + 3;
                let mut byte = [0u8; 1];
                file.seek(SeekFrom::Start(off)).expect("seek");
                file.read_exact(&mut byte).expect("read payload byte");
                byte[0] ^= 0xFF;
                file.seek(SeekFrom::Start(off)).expect("seek back");
                file.write_all(&byte).expect("flip payload byte");
                corrupted += 1;
            }
        }
    }
    file.sync_all().expect("sync corruption");
    assert!(corrupted > 0, "store file has no payload to corrupt");
    corrupted
}

fn married_men_30s() -> Predicate {
    Predicate::and([
        Predicate::point("marital_status", 1),
        Predicate::point("sex", 0),
        Predicate::range("age", 30, 35),
    ])
}

/// The acceptance demo, end to end: corrupt → detect → degrade (correct
/// rows) → quarantine → rebuild → healthy cost.
#[test]
fn corrupt_extent_degrades_then_rebuild_restores_healthy_cost() {
    let dir = test_dir("kill_switch");
    let table = people_table(1500, 9);
    save_columns(&table, &dir);
    corrupt_all_payload(&col_path(&dir, "age"));

    let predicate = married_men_30s();
    let want = predicate.naive_rows(&table);
    assert!(!want.is_empty(), "fixture predicate selects no rows");

    // Healthy reference: the same table fully in memory. Simulated
    // charges are backend-independent, so this is the cost baseline a
    // repaired table must return to.
    let healthy = IndexedTable::build(&table, |s, g| build_optimal(s, g));
    let healthy_out = healthy.execute(&predicate).expect("healthy execute");
    assert_eq!(healthy_out.rows.to_vec(), want);
    assert!(healthy_out.degraded.is_empty());

    // The corrupted open: the verified fetch trips on the age extent,
    // the executor quarantines it and degrades to the attached source
    // column — the query still returns the exact rows.
    let mut indexed = indexed_from_files(&table, &dir);
    let out = indexed.execute(&predicate).expect("degraded execute");
    assert_eq!(out.rows.to_vec(), want, "degraded rows must stay exact");
    assert_eq!(out.degraded, vec!["age".to_string()]);
    assert!(
        !indexed.quarantined_extents("age").is_empty(),
        "corruption must quarantine the failing extent"
    );
    assert!(indexed.is_quarantined("age"));

    // A second query plans around the quarantine up front: still the
    // right rows, still reported degraded.
    let again = indexed
        .execute(&predicate)
        .expect("planned-degraded execute");
    assert_eq!(again.rows.to_vec(), want);
    assert_eq!(again.degraded, vec!["age".to_string()]);

    // Online repair: rebuild the attribute from its source column and
    // atomically swap it in. Quarantine clears, the rows are
    // bit-identical, and the I/O charge equals the healthy baseline.
    indexed
        .rebuild_attribute("age", |s, g| build_optimal(s, g))
        .expect("rebuild");
    assert!(!indexed.is_quarantined("age"));
    assert!(indexed.quarantined_extents("age").is_empty());
    let after = indexed.execute(&predicate).expect("post-rebuild execute");
    assert_eq!(after.rows.to_vec(), want);
    assert!(after.degraded.is_empty());
    assert_eq!(
        after.io, healthy_out.io,
        "post-rebuild I/O must equal the healthy baseline"
    );
}

/// Corruption on an attribute with no attached source column cannot be
/// degraded around: the query fails with a typed `Corrupt` read error —
/// never a panic, never wrong rows.
#[test]
fn corruption_without_source_data_is_a_typed_error() {
    let dir = test_dir("no_source");
    let table = people_table(900, 11);
    save_columns(&table, &dir);
    corrupt_all_payload(&col_path(&dir, "age"));

    let columns = table
        .columns
        .iter()
        .map(|col| IndexedColumn {
            name: col.name.clone(),
            sigma: col.sigma,
            index: Box::new(open_column(&dir, &col.name, true).index) as Box<dyn SecondaryIndex>,
        })
        .collect();
    let indexed = IndexedTable::from_columns(columns);

    match indexed.execute(&married_men_30s()) {
        Err(QueryError::Read(e)) => {
            assert_eq!(
                e.class,
                ErrorClass::Corrupt,
                "expected a corrupt-class error"
            );
            assert!(!e.message.is_empty());
        }
        other => panic!("expected a typed corrupt read error, got {other:?}"),
    }
}

/// The word-array combine under faults. `age` in [20, 100] holds more
/// than half the rows, so its index lifts the complementary tails into
/// the condition's words and inverts them; with only each extent's last
/// block corrupt, the read fails after some tail slots were already
/// ORed in. Forced `Scan` must discard those words before the scan
/// fallback answers — kept, they would add tail rows to the answer —
/// in either condition order. Without a source column the same fault
/// is a typed read error.
#[test]
fn forced_scan_discards_partial_words_of_a_corrupt_condition() {
    let dir = test_dir("scan_words");
    let table = people_table(1500, 17);
    save_columns(&table, &dir);
    corrupt_payload(&col_path(&dir, "age"), true);
    let predicate = Predicate::and([Predicate::range("age", 20, 100), Predicate::point("sex", 0)]);
    let query = predicate.normalize().expect("normalize");
    let want = predicate.naive_rows(&table);
    assert!(!want.is_empty(), "fixture predicate selects no rows");

    for order in [[0, 1], [1, 0]] {
        let indexed = indexed_from_files(&table, &dir);
        let out = indexed
            .execute_forced(&query, &order, CombineStrategy::Scan)
            .expect("degraded execute");
        assert!(indexed.is_quarantined("age"), "order {order:?}");
        assert_eq!(out.degraded, vec!["age".to_string()]);
        assert_eq!(
            out.rows.to_vec(),
            want,
            "order {order:?}: rows must stay exact"
        );
    }

    let columns = table
        .columns
        .iter()
        .map(|col| IndexedColumn {
            name: col.name.clone(),
            sigma: col.sigma,
            index: Box::new(open_column(&dir, &col.name, true).index) as Box<dyn SecondaryIndex>,
        })
        .collect();
    let bare = IndexedTable::from_columns(columns);
    match bare.execute_forced(&query, &[0, 1], CombineStrategy::Scan) {
        Err(QueryError::Read(e)) => assert_eq!(e.class, ErrorClass::Corrupt),
        other => panic!("expected a typed corrupt read error, got {other:?}"),
    }
}

/// On-disk repair: rebuild the index from source data and `save` it over
/// the damaged file (temp + rename), then reopen — verified fetches are
/// clean and a full scrub pass finds nothing.
#[test]
fn on_disk_repair_round_trip() {
    let dir = test_dir("repair");
    let table = people_table(900, 13);
    save_columns(&table, &dir);
    let path = col_path(&dir, "age");
    corrupt_all_payload(&path);

    let age = table.columns.iter().find(|c| c.name == "age").unwrap();

    // The damage is real before repair: scrubbing the corrupted file
    // reports corrupt-class errors.
    {
        let opened = open_column(&dir, "age", true);
        let disks = opened.index.disks();
        let mut scrubber = Scrubber::new();
        let mut found = 0;
        for disk in &disks {
            scrubber.reset();
            loop {
                let report = scrubber.tick(disk, 8);
                found += report.errors.len();
                if report.done {
                    break;
                }
            }
        }
        assert!(found > 0, "scrub must see the corruption before repair");
    }

    // Repair: rebuild from the source column, save atomically, reopen.
    let fresh = OptimalIndex::build(&age.data, age.sigma, cfg());
    save(&fresh, &path).expect("save repaired index");

    let opened = open_column(&dir, "age", true);
    let io = psi::IoSession::new();
    for (lo, hi) in [(0u32, 0u32), (30, 35), (0, 127), (64, 100)] {
        let rows = opened
            .index
            .try_query(lo, hi, &io)
            .expect("repaired index must read clean");
        assert_eq!(
            rows.to_vec(),
            psi::naive_query(&age.data, lo, hi).to_vec(),
            "repaired rows [{lo}, {hi}]"
        );
    }

    let disks = opened.index.disks();
    let mut scrubber = Scrubber::new();
    for disk in &disks {
        scrubber.reset();
        loop {
            let report = scrubber.tick(disk, 8);
            assert!(report.errors.is_empty(), "repaired file must scrub clean");
            if report.done {
                break;
            }
        }
    }
}

/// The online scrubber finds real on-disk corruption at a bounded rate
/// (never more than its per-tick block budget), and its findings feed
/// the executor's quarantine so later queries plan around the damage
/// without ever touching it.
#[test]
fn scrubber_finds_corruption_within_budget_and_feeds_quarantine() {
    let dir = test_dir("scrubber");
    let table = people_table(900, 17);
    save_columns(&table, &dir);
    let corrupted_blocks = corrupt_all_payload(&col_path(&dir, "age"));

    let opened = open_column(&dir, "age", true);
    let disks = opened.index.disks();

    let budget = 4;
    let mut errors = Vec::new();
    let mut ticks = 0u64;
    for disk in &disks {
        let mut scrubber = Scrubber::new();
        loop {
            let report = scrubber.tick(disk, budget);
            assert!(
                report.scanned <= budget as u64,
                "tick scanned {} blocks, budget is {budget}",
                report.scanned
            );
            errors.extend(report.errors);
            ticks += 1;
            if report.done {
                assert!(scrubber.is_done());
                break;
            }
        }
    }
    assert!(!errors.is_empty(), "scrub must find the corruption");
    assert!(errors.len() as u64 <= corrupted_blocks);
    assert!(ticks > 1, "budget {budget} must spread the scan over ticks");
    for e in &errors {
        assert_eq!(e.class, ErrorClass::Corrupt);
    }

    // Feed the findings into a fresh table's quarantine: the next query
    // never touches the damaged index and still answers exactly.
    let indexed = indexed_from_files(&table, &dir);
    for e in &errors {
        indexed
            .quarantine_extent("age", e.extent.0)
            .expect("quarantine scrub finding");
    }
    assert!(indexed.is_quarantined("age"));
    let predicate = married_men_30s();
    let out = indexed
        .execute(&predicate)
        .expect("quarantine-planned execute");
    assert_eq!(out.rows.to_vec(), predicate.naive_rows(&table));
    assert_eq!(out.degraded, vec!["age".to_string()]);
}

/// Verification is free on the simulated cost model: with the checksum
/// on or off, every query has identical `IoStats` and the pool faults in
/// identical block counts — and a warm replay re-reads nothing, because
/// trailers are only ever checked at fault-in. Asserted structurally
/// (counters), not benchmarked.
#[test]
fn verified_fetches_cost_nothing_on_the_model_and_never_recheck_warm_hits() {
    let dir = test_dir("warm_cost");
    let table = people_table(900, 19);
    save_columns(&table, &dir);
    let age = table.columns.iter().find(|c| c.name == "age").unwrap();

    let with_verify = open_column(&dir, "age", true);
    let without_verify = open_column(&dir, "age", false);
    let grid: Vec<(u32, u32)> = (0..8)
        .flat_map(|i| (i..8).map(move |j| (i * 16, (j * 16 + 15).min(127))))
        .collect();

    // Cold pass: identical answers, identical simulated charges,
    // identical real fetch counts.
    for &(lo, hi) in &grid {
        let (rows_v, io_v) = with_verify.index.query_measured(lo, hi);
        let (rows_r, io_r) = without_verify.index.query_measured(lo, hi);
        assert_eq!(rows_v.to_vec(), rows_r.to_vec(), "rows [{lo}, {hi}]");
        assert_eq!(
            rows_v.to_vec(),
            psi::naive_query(&age.data, lo, hi).to_vec()
        );
        assert_eq!(io_v, io_r, "verification changed IoStats for [{lo}, {hi}]");
    }
    let cold_v = with_verify.real_fetches();
    let cold_r = without_verify.real_fetches();
    assert!(cold_v > 0, "grid must fault in payload blocks");
    assert_eq!(cold_v, cold_r, "verification changed cold fetch counts");

    // Warm replay: every block is already pooled — no new fetches under
    // either mode, so no trailer is ever rechecked on a warm hit.
    for &(lo, hi) in &grid {
        let (_, io_v) = with_verify.index.query_measured(lo, hi);
        let (_, io_r) = without_verify.index.query_measured(lo, hi);
        assert_eq!(io_v, io_r);
    }
    assert_eq!(with_verify.real_fetches(), cold_v, "warm hits re-fetched");
    assert_eq!(
        without_verify.real_fetches(),
        cold_r,
        "warm hits re-fetched"
    );
    let pools = with_verify.pool_stats();
    assert!(pools.hits > 0, "warm replay must hit the pool");
}
