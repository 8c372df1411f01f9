//! A miniature SQL/PGQ shell: runs a script file (or the built-in
//! demo) statement by statement through [`pgq_server::Engine`] and
//! prints every response line.
//!
//! The shell and the TCP server share one statement dispatcher, so a
//! script prints here exactly what `pgq-server` would send back. The
//! grammar — DDL, `GRAPH_TABLE` reads, `EXPLAIN [ANALYZE]`, row
//! mutations, `STATS`, `METRICS`, `COMPACT`, `SET THREADS` and
//! `SET PLANNER` — is described once, in the `pgq_server::engine`
//! module documentation.
//!
//! ```sh
//! cargo run --example sqlpgq_shell            # built-in demo
//! cargo run --example sqlpgq_shell -- my.pgq  # run a script file
//! ```

use pgq_server::engine::split_statements;
use pgq_server::{Engine, SessionState};

const DEMO: &str = r#"
CREATE TABLE Account (iban);
CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
INSERT INTO Account VALUES ('IL01');
INSERT INTO Account VALUES ('IL02');
INSERT INTO Account VALUES ('IL03');
INSERT INTO Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
INSERT INTO Transfer VALUES (2, 'IL02', 'IL03', 101, 750);
CREATE PROPERTY GRAPH Transfers (
  NODES TABLE Account KEY (iban) LABEL Account,
  EDGES TABLE Transfer KEY (t_id)
    SOURCE KEY src_iban REFERENCES Account
    TARGET KEY tgt_iban REFERENCES Account
    LABELS Transfer PROPERTIES (ts, amount));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
SET THREADS 2;
SET PLANNER rule;
SET PLANNER cost;
INSERT INTO Account VALUES ('IL04');
INSERT INTO Transfer VALUES (3, 'IL03', 'IL04', 102, 900);
DELETE FROM Transfer VALUES (1, 'IL01', 'IL02', 100, 500);
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
STATS;
EXPLAIN SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
EXPLAIN ANALYZE SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t:Transfer]->+ (y)
  WHERE t.amount > 100
  RETURN (x.iban, y.iban));
SELECT * FROM GRAPH_TABLE (Transfers
  MATCH (x) -[t]->+ (y)
  RETURN (x.iban, y.iban));
METRICS;
COMPACT;
STATS;
"#;

fn main() {
    let script = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEMO.to_string(),
    };
    let engine = Engine::new();
    let mut session = SessionState::default();
    for stmt in split_statements(&script) {
        for line in engine.statement(&mut session, &stmt) {
            println!("{line}");
        }
    }
}
