//! Inputs of the read workloads, made from the seed alone, and the store
//! set-up they share: build one `OptimalIndex` per column, save it with
//! `psi_store::save`, and open it with `psi_store::open`.

use std::path::Path;
use std::time::Instant;

use psi_api::{HasDisk, SecondaryIndex};
use psi_core::OptimalIndex;
use psi_io::IoConfig;
use psi_query::{ConjunctiveQuery, IndexedColumn, IndexedTable, Predicate};
use psi_store::{Backend, OpenOptions};
use psi_workloads::{ColumnSpec, Dist, Table};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng, SliceRandom};

/// Rows of the read workloads' table.
pub const ROWS: usize = 1 << 20;

/// Derives an independent sub-seed for one use of the run's seed.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    let mut x = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^ (x >> 29)
}

/// `a` (σ=4096, Zipf 0.6), `b` (σ=256, uniform), `c` (σ=32, runs of 16).
pub fn table(seed: u64) -> Table {
    let spec = |name: &str, sigma, dist| ColumnSpec {
        name: name.into(),
        sigma,
        dist,
    };
    Table::generate(
        ROWS,
        &[
            spec("a", 4096, Dist::Zipf(0.6)),
            spec("b", 256, Dist::Uniform),
            spec("c", 32, Dist::Runs(16.0)),
        ],
        sub_seed(seed, 1),
    )
}

/// The served pool: 4096 queries with `a`'s values drawn from Zipf(0.9),
/// 60% `a=v`, 30% `a=v ∧ b=w`, 10% `a=v ∧ ¬(b=w)`.
pub fn point_queries(seed: u64) -> Vec<ConjunctiveQuery> {
    const POOL: usize = 4096;
    let keys = psi_workloads::zipf(POOL, 4096, 0.9, sub_seed(seed, 2));
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    keys.into_iter()
        .map(|v| {
            let roll = rng.gen_range(0..10u32);
            let w = rng.gen_range(0..256u32);
            let p = match roll {
                0..=5 => Predicate::point("a", v),
                6..=8 => Predicate::and([Predicate::point("a", v), Predicate::point("b", w)]),
                _ => Predicate::and([
                    Predicate::point("a", v),
                    Predicate::not(Predicate::point("b", w)),
                ]),
            };
            p.normalize().expect("a conjunction normalizes")
        })
        .collect()
}

/// The scan pool: two in three queries are `a ∈ [lo, lo+σ/4)` with `lo`
/// spread evenly over the upper half of the alphabet (about 10^5 rows
/// each under Zipf(0.6)); the rest are `b` and `c` ranges each a quarter
/// of their alphabet wide (about 6·10^4 rows).
///
/// The ranges are the same for every seed, and the seed only shuffles
/// their order: a range's cost depends on how it aligns with the index's
/// alphabet tree (one node's bitmap, or a merge of many), and random
/// starts made the median cost of a pool move by 2x between seeds.
pub fn scan_queries(seed: u64, count: usize) -> Vec<ConjunctiveQuery> {
    let ranges_of_a = (count * 2).div_ceil(3) as u32;
    let ranges_of_bc = count as u32 - ranges_of_a;
    let mut pool: Vec<ConjunctiveQuery> = (0..ranges_of_a)
        .map(|k| {
            let lo = 2048 + k * 1024 / ranges_of_a;
            Predicate::range("a", lo, lo + 1023)
        })
        .chain((0..ranges_of_bc).map(|j| {
            let (b, c) = (j * 193 / ranges_of_bc, j * 25 / ranges_of_bc);
            Predicate::and([
                Predicate::range("b", b, b + 63),
                Predicate::range("c", c, c + 7),
            ])
        }))
        .map(|p| p.normalize().expect("a conjunction normalizes"))
        .collect();
    pool.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, 4)));
    pool
}

/// One set-up's timings and sizes.
#[derive(Debug, Default, Clone)]
pub struct StoreSetup {
    pub build_s: f64,
    pub save_s: f64,
    pub open_s: f64,
    pub warmup_s: f64,
    /// Store file bytes per column, in table order.
    pub file_bytes: Vec<u64>,
}

/// Builds and saves one index per column under `dir`; returns the
/// RAM-resident indexes (the pooled ones' twins) and the timings.
pub fn build_and_save(table: &Table, dir: &Path) -> (Vec<OptimalIndex>, StoreSetup) {
    let mut setup = StoreSetup::default();
    let mut built = Vec::new();
    for c in &table.columns {
        let t = Instant::now();
        let index = OptimalIndex::build(&c.data, c.sigma, IoConfig::default());
        setup.build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = psi_store::save(&index, dir.join(format!("{}.psi", c.name)))
            .unwrap_or_else(|e| panic!("saving column {}: {e}", c.name));
        setup.save_s += t.elapsed().as_secs_f64();
        setup.file_bytes.push(report.file_bytes);
        built.push(index);
    }
    (built, setup)
}

/// Opens every column's store file (File backend, verified fetches) with
/// a pool that holds all of the column's payload blocks.
pub fn open(
    table: &Table,
    built: &[OptimalIndex],
    dir: &Path,
    setup: &mut StoreSetup,
) -> IndexedTable {
    let t = Instant::now();
    let columns = table
        .columns
        .iter()
        .zip(built)
        .map(|(c, ram)| {
            let opts = OpenOptions {
                backend: Backend::File,
                pool_blocks: ram.disk().used_blocks().max(1) as usize,
                retry: None,
                verify: true,
            };
            let opened =
                psi_store::open::<OptimalIndex>(dir.join(format!("{}.psi", c.name)), &opts)
                    .unwrap_or_else(|e| panic!("opening column {}: {e}", c.name));
            IndexedColumn {
                name: c.name.clone(),
                sigma: c.sigma,
                index: Box::new(opened.index) as Box<dyn SecondaryIndex>,
            }
        })
        .collect();
    setup.open_s = t.elapsed().as_secs_f64();
    IndexedTable::from_columns(columns)
}

/// The RAM-resident twins as a table, for pool-overhead comparisons.
pub fn ram_table(table: &Table, built: Vec<OptimalIndex>) -> IndexedTable {
    IndexedTable::from_columns(
        table
            .columns
            .iter()
            .zip(built)
            .map(|(c, index)| IndexedColumn {
                name: c.name.clone(),
                sigma: c.sigma,
                index: Box::new(index) as Box<dyn SecondaryIndex>,
            })
            .collect(),
    )
}
