//! The answer oracle: each read's expected response computed straight
//! from the generator's rows — adjacency lists and ring closures — with
//! no code of the engine in between.

use crate::gen::{Bank, Read, Shape, Transfer};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Expected answers over one generated graph (plus any writer rows
/// still present).
#[derive(Debug)]
pub struct Oracle<'a> {
    bank: &'a Bank,
    /// `out[s]`: the transfers leaving account `s`.
    out: Vec<Vec<Transfer>>,
    /// Transfers by amount.
    by_amount: BTreeMap<i64, Vec<Transfer>>,
    /// Answers that do not depend on the constant, computed once.
    fixed: HashMap<Shape, Vec<String>>,
}

fn quoted(s: &str) -> String {
    format!("\"{s}\"")
}

impl<'a> Oracle<'a> {
    /// The oracle of `bank`'s generated rows.
    pub fn new(bank: &'a Bank) -> Oracle<'a> {
        let mut out = vec![Vec::new(); bank.accounts.len()];
        let mut by_amount: BTreeMap<i64, Vec<Transfer>> = BTreeMap::new();
        for t in &bank.transfers {
            out[t.src].push(*t);
            by_amount.entry(t.amount).or_default().push(*t);
        }
        Oracle {
            bank,
            out,
            by_amount,
            fixed: HashMap::new(),
        }
    }

    /// The graph the oracle answers for.
    pub fn bank(&self) -> &'a Bank {
        self.bank
    }

    fn iban(&self, i: usize) -> String {
        quoted(&self.bank.accounts[i].iban)
    }

    /// The expected result rows of `read`, rendered as the server
    /// renders them, sorted.
    pub fn rows(&mut self, read: &Read) -> Vec<String> {
        if matches!(read.shape, Shape::ReachBare | Shape::ReachLabel) {
            if let Some(rows) = self.fixed.get(&read.shape) {
                return rows.clone();
            }
            let rows = self.compute(read);
            self.fixed.insert(read.shape, rows.clone());
            return rows;
        }
        self.compute(read)
    }

    fn compute(&self, read: &Read) -> Vec<String> {
        let c = read.c;
        let owner = || usize::try_from(c).ok().filter(|&i| i < self.out.len());
        let mut rows: BTreeSet<String> = BTreeSet::new();
        match read.shape {
            Shape::OneHopOwner => {
                if let Some(x) = owner() {
                    for t in &self.out[x] {
                        rows.insert(format!(
                            "({}, {}, {})",
                            self.iban(x),
                            t.t_id,
                            self.iban(t.tgt)
                        ));
                    }
                }
            }
            Shape::OneHopAmount => {
                for t in self.by_amount.get(&c).into_iter().flatten() {
                    rows.insert(format!(
                        "({}, {}, {})",
                        self.iban(t.src),
                        t.t_id,
                        self.iban(t.tgt)
                    ));
                }
            }
            Shape::TwoHop => {
                if let Some(x) = owner() {
                    for t in &self.out[x] {
                        for u in &self.out[t.tgt] {
                            rows.insert(format!(
                                "({}, {}, {}, {})",
                                self.iban(x),
                                t.t_id,
                                u.t_id,
                                self.iban(u.tgt)
                            ));
                        }
                    }
                }
            }
            Shape::Upto2Hop => {
                if let Some(x) = owner() {
                    for t in &self.out[x] {
                        rows.insert(format!("({}, {})", self.iban(x), self.iban(t.tgt)));
                        for u in &self.out[t.tgt] {
                            rows.insert(format!("({}, {})", self.iban(x), self.iban(u.tgt)));
                        }
                    }
                }
            }
            Shape::ReachBare | Shape::ReachLabel | Shape::ReachAmount => {
                let min = if read.shape == Shape::ReachAmount {
                    c
                } else {
                    i64::MIN
                };
                for s in 0..self.out.len() {
                    for v in self.closure(s, min) {
                        rows.insert(format!("({}, {})", self.iban(s), self.iban(v)));
                    }
                }
            }
        }
        rows.into_iter().collect()
    }

    /// Accounts reachable from `s` in one or more steps over transfers
    /// with amount above `min`.
    fn closure(&self, s: usize, min: i64) -> BTreeSet<usize> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![s];
        while let Some(v) = stack.pop() {
            for t in &self.out[v] {
                if t.amount > min && seen.insert(t.tgt) {
                    stack.push(t.tgt);
                }
            }
        }
        seen
    }

    /// The expected response of `read`: the row-count line, then the
    /// rows.
    pub fn response(&mut self, read: &Read) -> Vec<String> {
        let rows = self.rows(read);
        let mut out = Vec::with_capacity(rows.len() + 1);
        out.push(format!("-- {} row(s)", rows.len()));
        out.extend(rows);
        out
    }

    /// The expected response of [`dump_sql`]: every transfer, plus the
    /// writer rows in `extra`.
    pub fn dump(&self, extra: &[Transfer]) -> Vec<String> {
        let rows: BTreeSet<String> = self
            .bank
            .transfers
            .iter()
            .chain(extra)
            .map(|t| format!("({}, {}, {})", self.iban(t.src), t.t_id, self.iban(t.tgt)))
            .collect();
        let mut out = vec![format!("-- {} row(s)", rows.len())];
        out.extend(rows);
        out
    }
}

/// A statement listing every transfer edge — the final-state probe.
pub fn dump_sql() -> String {
    format!(
        "SELECT * FROM GRAPH_TABLE ({} MATCH (x) -[t:Transfer]-> (y) RETURN (x.iban, t.t_id, y.iban))",
        crate::gen::GRAPH
    )
}

/// Whether a response equals the expected one up to row order (the
/// row-count line first, then the rows in any order).
pub fn same_answer(expected: &[String], got: &[String]) -> bool {
    if expected.len() != got.len() || expected.first() != got.first() {
        return false;
    }
    let mut rows: Vec<&String> = got[1..].iter().collect();
    rows.sort();
    rows.into_iter().eq(expected[1..].iter())
}
