//! Deterministic input generation: the two graphs as SQL rows, the
//! set-up script as request lines, and each workload's statement
//! sequence. Everything here is a pure function of the seed, so the
//! same seed gives byte-identical SQL text.

use std::fmt::Write as _;

/// Accounts of graph T (`pgq_workloads::ldbc_transfers`). Both graph
/// sizes are small enough that a 30-second run completes over 100
/// reads, so at least ten lie beyond the p90 it reports.
pub const T_ACCOUNTS: usize = 500;
/// Transfers per account of graph T.
pub const T_DEGREE: usize = 4;
/// Accounts of graph R, arranged in transfer rings.
pub const R_ACCOUNTS: usize = 2_000;
/// Accounts per ring of graph R.
pub const RING: usize = 8;
/// Accounts with no transfers, appended to both graphs: the writer's
/// endpoints, so writes never change a read's answer.
pub const RESERVED: usize = 16;
/// Upper bound (exclusive) of generated amounts; writes use amount 0,
/// which no generated transfer has.
pub const AMOUNT_RANGE: i64 = 10_000;
/// Bytes per batched `INSERT` request line, kept well under the
/// server's 64 KiB line bound.
const LINE_BUDGET: usize = 48 * 1024;

/// The graph every statement names.
pub const GRAPH: &str = "Bank";

/// A small seeded generator (SplitMix64): the statement sequences and
/// graph R's amounts draw from it.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// One account row: `Account(iban, owner, blocked)`. `owner` is the
/// account's index in [`Bank::accounts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Account {
    /// The key.
    pub iban: String,
    /// Whether the account is blocked.
    pub blocked: bool,
}

/// One transfer row: `Transfer(t_id, src_iban, tgt_iban, amount)`,
/// endpoints as account indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// The key.
    pub t_id: i64,
    /// Source account index.
    pub src: usize,
    /// Target account index.
    pub tgt: usize,
    /// Transfer amount, in `1..AMOUNT_RANGE`.
    pub amount: i64,
}

/// A generated graph as base-table rows. The last [`RESERVED`]
/// accounts have no transfers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bank {
    /// Account rows; the index is the `owner` column.
    pub accounts: Vec<Account>,
    /// Transfer rows.
    pub transfers: Vec<Transfer>,
}

impl Bank {
    /// Index of the first reserved account.
    pub fn first_reserved(&self) -> usize {
        self.accounts.len() - RESERVED
    }

    /// Graph T: `ldbc_transfers(accounts, T_DEGREE, seed)` rendered as
    /// rows, plus the reserved accounts.
    pub fn transfers_graph(accounts: usize, seed: u64) -> Bank {
        let g = pgq_workloads::scale::ldbc_transfers(accounts, T_DEGREE, seed);
        let mut out = Bank {
            accounts: g
                .nodes
                .iter()
                .map(|v| Account {
                    iban: v.as_str().expect("generated ibans are strings").to_string(),
                    blocked: false,
                })
                .collect(),
            transfers: Vec::with_capacity(g.edges.len()),
        };
        for (node, key, value) in &g.node_props {
            if key.as_str() == Some("isBlocked") {
                out.accounts[*node as usize].blocked = value.as_bool().unwrap_or(false);
            }
        }
        let mut amounts = vec![0i64; g.edges.len()];
        for (edge, key, value) in &g.edge_props {
            if key.as_str() == Some("amount") {
                amounts[*edge as usize] = value.as_int().expect("generated amounts are integers");
            }
        }
        for (e, id) in g.edges.iter().enumerate() {
            out.transfers.push(Transfer {
                t_id: id.as_int().expect("generated transfer ids are integers"),
                src: g.src[e] as usize,
                tgt: g.tgt[e] as usize,
                amount: amounts[e],
            });
        }
        out.push_reserved();
        out
    }

    /// Graph R: `accounts` accounts in rings of [`RING`], each with one
    /// transfer to its ring successor carrying a seeded amount, plus
    /// the reserved accounts.
    pub fn ring_graph(accounts: usize, seed: u64) -> Bank {
        assert_eq!(accounts % RING, 0, "rings must be complete");
        let mut rng = Rng::new(seed, 1);
        let mut out = Bank {
            accounts: (0..accounts)
                .map(|i| Account {
                    iban: format!("IBAN{i:010}"),
                    blocked: false,
                })
                .collect(),
            transfers: Vec::with_capacity(accounts),
        };
        for i in 0..accounts {
            let ring = i - i % RING;
            out.transfers.push(Transfer {
                t_id: i as i64,
                src: i,
                tgt: ring + (i + 1) % RING,
                amount: 1 + rng.below(AMOUNT_RANGE as u64 - 1) as i64,
            });
        }
        out.push_reserved();
        out
    }

    fn push_reserved(&mut self) {
        for j in 0..RESERVED {
            self.accounts.push(Account {
                iban: format!("RSRV{j:010}"),
                blocked: false,
            });
        }
    }

    /// The set-up script as request lines, in order: the two
    /// `CREATE TABLE`s, every row as batched `INSERT` lines, then
    /// `CREATE PROPERTY GRAPH`. Rows go in before the graph exists, so
    /// loading never restages a graph.
    pub fn setup_lines(&self) -> Vec<String> {
        let mut lines = vec![
            "CREATE TABLE Account (iban, owner, blocked)".to_string(),
            "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, amount)".to_string(),
        ];
        let mut line = String::new();
        let push = |stmt: String, line: &mut String, lines: &mut Vec<String>| {
            if !line.is_empty() && line.len() + stmt.len() + 2 > LINE_BUDGET {
                lines.push(std::mem::take(line));
            }
            if !line.is_empty() {
                line.push_str("; ");
            }
            line.push_str(&stmt);
        };
        for (i, a) in self.accounts.iter().enumerate() {
            let stmt = format!(
                "INSERT INTO Account VALUES ('{}', {i}, {})",
                a.iban, a.blocked
            );
            push(stmt, &mut line, &mut lines);
        }
        for t in &self.transfers {
            push(
                self.transfer_values("INSERT INTO", t),
                &mut line,
                &mut lines,
            );
        }
        if !line.is_empty() {
            lines.push(line);
        }
        lines.push(format!(
            "CREATE PROPERTY GRAPH {GRAPH} ( \
             NODES TABLE Account KEY (iban) LABEL Account PROPERTIES (owner, blocked), \
             EDGES TABLE Transfer KEY (t_id) \
             SOURCE KEY src_iban REFERENCES Account \
             TARGET KEY tgt_iban REFERENCES Account \
             LABEL Transfer PROPERTIES (amount))"
        ));
        lines
    }

    /// `INSERT INTO` / `DELETE FROM` of one transfer row.
    pub fn transfer_values(&self, verb: &str, t: &Transfer) -> String {
        format!(
            "{verb} Transfer VALUES ({}, '{}', '{}', {})",
            t.t_id, self.accounts[t.src].iban, self.accounts[t.tgt].iban, t.amount
        )
    }

    /// The writer's `i`-th row: a fresh `t_id` between the first two
    /// reserved accounts, amount 0.
    pub fn writer_row(&self, i: usize) -> Transfer {
        let r = self.first_reserved();
        Transfer {
            t_id: 1_000_000_000 + i as i64,
            src: r,
            tgt: r + 1,
            amount: 0,
        }
    }

    /// The writer's `k`-th statement: even `k` inserts row `k/2`, odd
    /// `k` deletes it again, so the row set returns to the generated
    /// one after every pair.
    pub fn write_at(&self, k: usize) -> String {
        let row = self.writer_row(k / 2);
        let verb = if k.is_multiple_of(2) {
            "INSERT INTO"
        } else {
            "DELETE FROM"
        };
        self.transfer_values(verb, &row)
    }

    /// The expected response to [`Bank::write_at`]`(k)`.
    pub fn write_ack(k: usize) -> &'static str {
        if k.is_multiple_of(2) {
            "-- inserted into Transfer"
        } else {
            "-- deleted from Transfer"
        }
    }
}

/// The seven read shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Shape {
    /// `(x)-[t:Transfer]->(y) WHERE x.owner = c`.
    OneHopOwner,
    /// `(x)-[t:Transfer]->(y) WHERE t.amount = c`.
    OneHopAmount,
    /// `(x)-[t:Transfer]->(y)-[u:Transfer]->(z) WHERE x.owner = c`.
    TwoHop,
    /// `(x)-[t:Transfer]->{1,2}(y) WHERE x.owner = c`.
    Upto2Hop,
    /// `(x)-[t]->+(y)`: the frozen-CSR route.
    ReachBare,
    /// `(x)-[t:Transfer]->+(y)`: the fixpoint route.
    ReachLabel,
    /// `(x)-[t:Transfer]->+(y) WHERE t.amount > c`.
    ReachAmount,
}

impl Shape {
    /// Every shape, in metric order.
    pub const ALL: [Shape; 7] = [
        Shape::OneHopOwner,
        Shape::OneHopAmount,
        Shape::TwoHop,
        Shape::Upto2Hop,
        Shape::ReachBare,
        Shape::ReachLabel,
        Shape::ReachAmount,
    ];

    /// The shape's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Shape::OneHopOwner => "one_hop_owner",
            Shape::OneHopAmount => "one_hop_amount",
            Shape::TwoHop => "two_hop",
            Shape::Upto2Hop => "upto2_hop",
            Shape::ReachBare => "reach_bare",
            Shape::ReachLabel => "reach_label",
            Shape::ReachAmount => "reach_amount",
        }
    }
}

/// One read statement: a shape and its constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    /// The pattern shape.
    pub shape: Shape,
    /// The constant `c` (unused by the unfiltered reach shapes).
    pub c: i64,
}

impl Read {
    /// The statement's SQL text.
    pub fn sql(&self) -> String {
        let c = self.c;
        let (pattern, filter, ret) = match self.shape {
            Shape::OneHopOwner => (
                "(x) -[t:Transfer]-> (y)",
                format!(" WHERE x.owner = {c}"),
                "(x.iban, t.t_id, y.iban)",
            ),
            Shape::OneHopAmount => (
                "(x) -[t:Transfer]-> (y)",
                format!(" WHERE t.amount = {c}"),
                "(x.iban, t.t_id, y.iban)",
            ),
            Shape::TwoHop => (
                "(x) -[t:Transfer]-> (y) -[u:Transfer]-> (z)",
                format!(" WHERE x.owner = {c}"),
                "(x.iban, t.t_id, u.t_id, z.iban)",
            ),
            Shape::Upto2Hop => (
                "(x) -[t:Transfer]->{1,2} (y)",
                format!(" WHERE x.owner = {c}"),
                "(x.iban, y.iban)",
            ),
            Shape::ReachBare => ("(x) -[t]->+ (y)", String::new(), "(x.iban, y.iban)"),
            Shape::ReachLabel => (
                "(x) -[t:Transfer]->+ (y)",
                String::new(),
                "(x.iban, y.iban)",
            ),
            Shape::ReachAmount => (
                "(x) -[t:Transfer]->+ (y)",
                format!(" WHERE t.amount > {c}"),
                "(x.iban, y.iban)",
            ),
        };
        let mut s = String::new();
        let _ = write!(
            s,
            "SELECT * FROM GRAPH_TABLE ({GRAPH} MATCH {pattern}{filter} RETURN {ret})"
        );
        s
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Selective one- and two-hop reads on graph T, one connection.
    HopRead,
    /// A writer and a `hop_read` reader on graph T.
    WriteMix,
    /// Whole-graph reachability on graph R, one connection.
    ReachScan,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::HopRead, Workload::WriteMix, Workload::ReachScan];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HopRead => "hop_read",
            Workload::WriteMix => "write_mix",
            Workload::ReachScan => "reach_scan",
        }
    }

    /// Why the workload is in the benchmark (also recorded in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::HopRead => {
                "one connection of selective 1-2 hop reads on a 500-account transfers graph: each takes the reference route after a per-query view rebuild, so core, graph and pattern do the work"
            }
            Workload::WriteMix => {
                "a closed-loop writer restages all six views per write under the base lock that a concurrent hop_read reader's lowering also takes, so the write path does most of the work"
            }
            Workload::ReachScan => {
                "reachability answers of 2k-16k rows over 2,000 ring accounts: CSR sweeps, the fixpoint, result decoding and rendering do the work, and reach_bare bypasses the view rebuild"
            }
        }
    }

    /// One cycle of the workload's reads. The hop cycle runs the two
    /// one-hop shapes twice as often as the two-hop ones, so the
    /// median read lies inside the one-hop cluster and the p90 inside
    /// the two-hop cluster instead of in the gap between them, where a
    /// few samples would move it.
    pub fn shapes(self) -> &'static [Shape] {
        const HOP: [Shape; 6] = [
            Shape::OneHopOwner,
            Shape::OneHopAmount,
            Shape::TwoHop,
            Shape::OneHopOwner,
            Shape::OneHopAmount,
            Shape::Upto2Hop,
        ];
        match self {
            Workload::HopRead | Workload::WriteMix => &HOP,
            Workload::ReachScan => &Shape::ALL[4..],
        }
    }

    /// The workload's graph.
    pub fn graph(self, seed: u64) -> Bank {
        match self {
            Workload::HopRead | Workload::WriteMix => Bank::transfers_graph(T_ACCOUNTS, seed),
            Workload::ReachScan => Bank::ring_graph(R_ACCOUNTS, seed),
        }
    }

    /// The `k`-th read of the workload's sequence: the shape cycle in
    /// order, constants drawn from the seed. Owner constants name generated
    /// (non-reserved) accounts; amount constants are the amount of a
    /// generated transfer for `one_hop_amount` (so the answer is never
    /// empty) and a threshold in the middle tenth of the range for
    /// `reach_amount`, which about half of the ring transfers pass.
    pub fn read_at(self, bank: &Bank, seed: u64, k: usize) -> Read {
        let shapes = self.shapes();
        let shape = shapes[k % shapes.len()];
        let mut rng = Rng::new(seed, 2 + k as u64);
        let c = match shape {
            Shape::OneHopOwner | Shape::TwoHop | Shape::Upto2Hop => {
                rng.below(bank.first_reserved() as u64) as i64
            }
            Shape::OneHopAmount => {
                bank.transfers[rng.below(bank.transfers.len() as u64) as usize].amount
            }
            Shape::ReachAmount => {
                AMOUNT_RANGE * 9 / 20 + rng.below(AMOUNT_RANGE as u64 / 10) as i64
            }
            Shape::ReachBare | Shape::ReachLabel => 0,
        };
        Read { shape, c }
    }
}
