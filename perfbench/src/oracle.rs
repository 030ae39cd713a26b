//! The correctness oracle: expected row counts and hashes, computed from
//! the generated table without any index.
//!
//! Every query of the read workloads holds at least one positive
//! condition. The oracle takes its candidate rows from the positive
//! condition with the fewest matches, read off a value-sorted copy of the
//! column, and keeps those for which every condition holds. The result is
//! exactly [`psi_query::Predicate::naive_rows`]; `agrees_with_naive_rows`
//! checks that on sampled queries at every run.

use psi_query::{ConjunctiveQuery, Predicate};
use psi_workloads::Table;

/// What a correct answer looks like: its size and an order-sensitive hash
/// of its ascending row ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    pub rows: u64,
    pub hash: u64,
}

impl Digest {
    pub fn of(rows: impl IntoIterator<Item = u64>) -> Digest {
        let mut d = Digest {
            rows: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        };
        for r in rows {
            d.rows += 1;
            d.hash = (d.hash ^ r).wrapping_mul(0x0000_0100_0000_01b3);
            d.hash ^= d.hash >> 29;
        }
        d
    }
}

/// One column, sorted by value: `by_value[start[v]..start[v + 1]]` are
/// the rows holding `v`, ascending.
struct ValueIndex {
    name: String,
    data: Vec<u32>,
    start: Vec<usize>,
    by_value: Vec<u32>,
}

pub struct Oracle {
    columns: Vec<ValueIndex>,
}

impl Oracle {
    pub fn new(table: &Table) -> Oracle {
        let columns = table
            .columns
            .iter()
            .map(|c| {
                let mut start = vec![0usize; c.sigma as usize + 1];
                for &v in &c.data {
                    start[v as usize + 1] += 1;
                }
                for v in 0..c.sigma as usize {
                    start[v + 1] += start[v];
                }
                let mut next = start.clone();
                let mut by_value = vec![0u32; c.data.len()];
                for (row, &v) in c.data.iter().enumerate() {
                    by_value[next[v as usize]] = row as u32;
                    next[v as usize] += 1;
                }
                ValueIndex {
                    name: c.name.clone(),
                    data: c.data.clone(),
                    start,
                    by_value,
                }
            })
            .collect();
        Oracle { columns }
    }

    fn column(&self, name: &str) -> &ValueIndex {
        self.columns
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("query names unknown column {name}"))
    }

    /// The rows matching `query`, ascending.
    pub fn rows(&self, query: &ConjunctiveQuery) -> Vec<u64> {
        let conds: Vec<(&ValueIndex, u32, u32, bool)> = query
            .conditions
            .iter()
            .map(|c| (self.column(&c.attr), c.lo, c.hi, c.negated))
            .collect();
        let matches = |row: usize| {
            conds
                .iter()
                .all(|&(col, lo, hi, neg)| (lo..=hi).contains(&col.data[row]) != neg)
        };
        let count = |col: &ValueIndex, lo: u32, hi: u32| {
            let sigma = col.start.len() - 1;
            let hi = (hi as usize).min(sigma - 1);
            if lo as usize > hi {
                0
            } else {
                col.start[hi + 1] - col.start[lo as usize]
            }
        };
        let narrowest = conds
            .iter()
            .filter(|c| !c.3)
            .min_by_key(|&&(col, lo, hi, _)| count(col, lo, hi));
        match narrowest {
            // One value: its rows are already ascending.
            Some(&(col, lo, hi, _)) if lo == hi => {
                let (a, b) = (col.start[lo as usize], col.start[lo as usize + 1]);
                col.by_value[a..b]
                    .iter()
                    .map(|&r| r as usize)
                    .filter(|&r| matches(r))
                    .map(|r| r as u64)
                    .collect()
            }
            _ => {
                let n = self.columns.first().map_or(0, |c| c.data.len());
                (0..n).filter(|&r| matches(r)).map(|r| r as u64).collect()
            }
        }
    }

    pub fn digest(&self, query: &ConjunctiveQuery) -> Digest {
        Digest::of(self.rows(query))
    }
}

/// Checks the oracle against [`Predicate::naive_rows`] on one query.
pub fn agrees_with_naive_rows(
    oracle: &Oracle,
    table: &Table,
    predicate: &Predicate,
) -> Result<(), String> {
    let query = predicate.normalize().map_err(|e| e.to_string())?;
    let fast = oracle.rows(&query);
    let naive = predicate.naive_rows(table);
    if fast == naive {
        Ok(())
    } else {
        Err(format!(
            "oracle disagrees with naive_rows on {predicate:?}: {} vs {} rows",
            fast.len(),
            naive.len()
        ))
    }
}

/// Compares an answer with its expected digest.
pub fn check(what: &str, got: Digest, want: Digest) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "wrong rows for {what}: got {} rows (hash {:016x}), expected {} rows (hash {:016x})",
            got.rows, got.hash, want.rows, want.hash
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_workloads::{ColumnSpec, Dist};

    fn table() -> Table {
        let spec = |name: &str, sigma, dist| ColumnSpec {
            name: name.into(),
            sigma,
            dist,
        };
        Table::generate(
            5_000,
            &[
                spec("a", 64, Dist::Zipf(0.9)),
                spec("b", 8, Dist::Uniform),
                spec("c", 4, Dist::Runs(16.0)),
            ],
            11,
        )
    }

    #[test]
    fn oracle_matches_naive_rows() {
        let t = table();
        let o = Oracle::new(&t);
        for p in [
            Predicate::point("a", 0),
            Predicate::point("a", 63),
            Predicate::and([Predicate::point("a", 2), Predicate::point("b", 3)]),
            Predicate::and([
                Predicate::point("a", 1),
                Predicate::not(Predicate::point("b", 3)),
            ]),
            Predicate::range("a", 10, 25),
            Predicate::and([Predicate::range("b", 2, 5), Predicate::range("c", 1, 2)]),
        ] {
            agrees_with_naive_rows(&o, &t, &p).unwrap();
        }
    }

    #[test]
    fn corrupted_rows_are_rejected() {
        let t = table();
        let o = Oracle::new(&t);
        let q = Predicate::range("a", 0, 3).normalize().unwrap();
        let rows = o.rows(&q);
        let want = Digest::of(rows.iter().copied());
        assert!(check("q", Digest::of(rows.iter().copied()), want).is_ok());

        let mut dropped = rows.clone();
        dropped.pop();
        assert!(check("q", Digest::of(dropped), want).is_err());

        let mut shifted = rows.clone();
        shifted[0] += 1;
        assert!(check("q", Digest::of(shifted), want).is_err());

        let mut swapped = rows.clone();
        swapped.swap(0, 1);
        assert!(check("q", Digest::of(swapped), want).is_err());
    }
}
