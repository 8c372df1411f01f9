//! The PR 8 protocol battery: concurrent-connection smoke with
//! deterministic per-client transcripts, and the malformed-input /
//! oversized-line / mid-line-disconnect suite — all against one shared
//! server. Nothing here may kill the server or poison the shared
//! store lock.

use pgq_server::{Client, Engine, Server, MAX_LINE};
use std::sync::Arc;

const GRAPH_DDL: &str = "CREATE PROPERTY GRAPH Transfers ( \
     NODES TABLE Account KEY (iban) LABEL Account, \
     EDGES TABLE Transfer KEY (t_id) \
       SOURCE KEY src_iban REFERENCES Account \
       TARGET KEY tgt_iban REFERENCES Account \
       LABELS Transfer PROPERTIES (ts, amount))";

const QUERY: &str = "SELECT * FROM GRAPH_TABLE (Transfers \
     MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 100 \
     RETURN (x.iban, y.iban))";

fn start_server() -> Server {
    Server::bind(Arc::new(Engine::new()), "127.0.0.1:0").expect("bind ephemeral port")
}

/// Loads the canonical transfers schema plus `extra` accounts/edges.
fn load_demo(client: &mut Client, accounts: usize) {
    for stmt in [
        "CREATE TABLE Account (iban)",
        "CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)",
        GRAPH_DDL,
    ] {
        let resp = client.request(stmt).expect("ddl");
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "DDL failed: {resp:?}"
        );
    }
    for i in 0..accounts {
        client
            .request(&format!("INSERT INTO Account VALUES ('A{i}')"))
            .expect("insert account");
    }
    for i in 0..accounts.saturating_sub(1) {
        client
            .request(&format!(
                "INSERT INTO Transfer VALUES ({i}, 'A{i}', 'A{}', {}, {})",
                i + 1,
                100 + i,
                500 + i
            ))
            .expect("insert transfer");
    }
}

#[test]
fn concurrent_clients_get_deterministic_transcripts() {
    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, 6);
    let expected = setup.request(QUERY).expect("oracle query");
    assert_eq!(
        expected[0], "-- 15 row(s)",
        "unexpected oracle: {expected:?}"
    );

    // k clients × m queries each, racing: every transcript must be m
    // copies of the oracle response — same rows, same order.
    let handles: Vec<_> = (0..4)
        .map(|c| {
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                // Per-connection SET THREADS exercises both executor modes.
                let threads = if c % 2 == 0 { 1 } else { 2 };
                client
                    .request(&format!("SET THREADS {threads}"))
                    .expect("set threads");
                for _ in 0..8 {
                    let resp = client.request(QUERY).expect("query");
                    assert_eq!(resp, expected, "client {c} diverged");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

#[test]
fn statement_batches_and_session_commands_round_trip() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 4);
    // A `;`-separated batch on one line answers in statement order.
    let resp = client
        .request("STATS; METRICS; SET THREADS 2")
        .expect("batch");
    let joined = resp.join("\n");
    assert!(joined.contains("store layout"), "missing STATS: {joined}");
    assert!(
        joined.contains("store access counters"),
        "missing METRICS: {joined}"
    );
    assert!(joined.contains("threads set to 2"), "missing SET: {joined}");
    // JSON variants and COMPACT.
    let stats = client.request("STATS JSON").expect("stats json").join("\n");
    assert!(stats.trim_start().starts_with('{'), "not JSON: {stats}");
    for key in [
        "\"bytes\"",
        "\"dictionary\"",
        "\"csr\"",
        "\"overlays\"",
        "\"total\"",
    ] {
        assert!(stats.contains(key), "missing {key} in STATS JSON: {stats}");
    }
    let resp = client.request("COMPACT").expect("compact");
    assert!(resp[0].starts_with("-- compacted:"), "{resp:?}");
    // EXPLAIN and EXPLAIN ANALYZE both answer.
    let plan = client
        .request(&format!("EXPLAIN {QUERY}"))
        .expect("explain");
    assert_eq!(plan[0], "-- physical plan");
    let profile = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(profile[0], "-- query profile");
    server.stop();
}

#[test]
fn planner_switch_and_statistics_sections_round_trip() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 5);

    // STATS grows a planner-statistics section: per-relation live-row
    // and distinct counts plus degree-histogram summaries.
    let stats = client.request("STATS").expect("stats").join("\n");
    assert!(
        stats.contains("-- planner statistics"),
        "missing planner statistics section: {stats}"
    );
    assert!(
        stats.contains("statistics (epoch"),
        "missing epoch header: {stats}"
    );
    assert!(stats.contains("distinct ["), "missing distinct: {stats}");
    assert!(stats.contains("/ p99 "), "missing histogram: {stats}");

    // STATS JSON carries the same data under a "statistics" object.
    let json = client.request("STATS JSON").expect("stats json").join("\n");
    for key in [
        "\"statistics\"",
        "\"epoch\"",
        "\"distinct\"",
        "\"live_rows\"",
        "\"forward\"",
        "\"p99\"",
    ] {
        assert!(json.contains(key), "missing {key} in STATS JSON: {json}");
    }

    // SET PLANNER switches per connection; both planners answer the
    // same rows, and a bad argument is a typed error.
    let cost_rows = client.request(QUERY).expect("cost query");
    let resp = client.request("SET PLANNER rule").expect("set rule");
    assert_eq!(resp, ["-- planner set to rule"]);
    let rule_rows = client.request(QUERY).expect("rule query");
    assert_eq!(cost_rows, rule_rows, "planners diverged");
    let resp = client.request("SET PLANNER greedy").expect("bad planner");
    assert_eq!(resp, ["!! SET PLANNER needs cost or rule"]);
    let resp = client.request("SET PLANNER COST").expect("set cost");
    assert_eq!(resp, ["-- planner set to cost"]);

    // EXPLAIN and EXPLAIN ANALYZE answer under both planners (pattern
    // profiles are leaf operators — the est= column is exercised on
    // the relational route in tests/prop_engine.rs).
    for planner in ["cost", "rule"] {
        client
            .request(&format!("SET PLANNER {planner}"))
            .expect("set planner");
        let plan = client
            .request(&format!("EXPLAIN {QUERY}"))
            .expect("explain");
        assert_eq!(plan[0], "-- physical plan", "under {planner}: {plan:?}");
        let profile = client
            .request(&format!("EXPLAIN ANALYZE {QUERY}"))
            .expect("analyze");
        assert_eq!(
            profile[0], "-- query profile",
            "under {planner}: {profile:?}"
        );
    }
    server.stop();
}

#[test]
fn malformed_inputs_return_typed_errors_and_server_survives() {
    let server = start_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    load_demo(&mut client, 3);

    // Unknown grammar → parser's typed error, session continues.
    let resp = client.request("FROB THE STORE").expect("bad stmt");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // Malformed mutation → shell-style typed error.
    let resp = client
        .request("INSERT INTO Account 'oops'")
        .expect("bad insert");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // A close paren before the open one → typed error, not a slice
    // panic that would kill the connection thread.
    let resp = client
        .request("INSERT INTO Account VALUES )(")
        .expect("reversed parens");
    assert!(resp[0].starts_with("!! "), "{resp:?}");
    // A multi-byte character where a keyword boundary would fall: the
    // error names the character, not its first byte.
    let resp = client.request("EXPLAIé SELECT 1").expect("utf-8 keyword");
    assert_eq!(
        resp,
        ["!! parse error at byte 6: unexpected character 'é'"],
        "{resp:?}"
    );
    // VALUES is tokenized by the SQL lexer: a comma inside a string is
    // part of the string (the repeat is a no-op, so exactly one row
    // went in), `''` escapes a quote, and an unterminated string is a
    // typed error that inserts nothing.
    client.request("CREATE TABLE Pair (k, v)").expect("ddl");
    for (stmt, want) in [
        (
            "INSERT INTO Pair VALUES ('a,b', 'c')",
            "-- inserted into Pair",
        ),
        (
            "INSERT INTO Pair VALUES ('a,b', 'c')",
            "-- inserted into Pair (no-op)",
        ),
        (
            "INSERT INTO Account VALUES ('it''s')",
            "-- inserted into Account",
        ),
        (
            "INSERT INTO Account VALUES ('abc",
            "!! parse error at byte 28: unterminated string literal",
        ),
    ] {
        let resp = client.request(stmt).expect("mutation");
        assert_eq!(resp, [want], "{stmt}");
    }
    let resp = client
        .request("SELECT * FROM GRAPH_TABLE (Transfers MATCH (x) RETURN (x.iban))")
        .expect("accounts");
    assert_eq!(
        resp,
        [
            "-- 4 row(s)",
            "(\"A0\")",
            "(\"A1\")",
            "(\"A2\")",
            "(\"it's\")"
        ]
    );
    // Query on an unknown graph → typed error, not a hang or panic.
    let resp = client
        .request("SELECT * FROM GRAPH_TABLE (Nope MATCH (x) RETURN (x.iban))")
        .expect("unknown graph");
    assert!(resp[0].starts_with("!! "), "{resp:?}");

    // Invalid UTF-8 → typed protocol error on the same connection.
    client.send_raw(b"SELECT \xff\xfe\n").expect("raw send");
    let resp = client.read_response().expect("utf8 response");
    assert_eq!(resp, ["!! protocol: request is not valid UTF-8"]);

    // Oversized request → typed protocol error; the flood is drained.
    let flood = "X".repeat(MAX_LINE + 512);
    let resp = client.request(&flood).expect("oversized");
    assert_eq!(
        resp,
        [format!("!! protocol: request exceeds {MAX_LINE} bytes")]
    );

    // The same session still works after every abuse…
    let resp = client.request("STATS").expect("stats after abuse");
    assert_eq!(resp[0], "-- store layout");

    // …and a mid-line disconnect (no trailing newline) doesn't take
    // the server or the shared store down with it.
    let mut rude = Client::connect(addr).expect("connect rude");
    rude.send_raw(b"INSERT INTO Account VALUES ('half")
        .expect("partial");
    rude.abort_write().expect("abort");
    drop(rude);

    // A fresh client can still read *and write* — the store lock is
    // not poisoned, and the partial line was never executed.
    let mut after = Client::connect(addr).expect("connect after");
    let resp = after
        .request("INSERT INTO Account VALUES ('A9')")
        .expect("write after disconnect");
    assert!(resp[0].starts_with("-- inserted into Account"), "{resp:?}");
    let resp = after.request(QUERY).expect("read after disconnect");
    assert!(resp[0].starts_with("-- "), "{resp:?}");
    assert!(
        !resp.iter().any(|l| l.contains("half")),
        "partial statement leaked: {resp:?}"
    );
    server.stop();
}

#[test]
fn writer_and_readers_interleave_without_divergence() {
    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, 5);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect reader");
                let mut seen = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let resp = client.request(QUERY).expect("read");
                    // Every answer is a complete, well-formed result
                    // for SOME published snapshot: a count header
                    // matching the row lines, never an error.
                    assert!(resp[0].starts_with("-- "), "{resp:?}");
                    let n: usize = resp[0]
                        .trim_start_matches("-- ")
                        .split_whitespace()
                        .next()
                        .unwrap()
                        .parse()
                        .expect("row count header");
                    assert_eq!(n, resp.len() - 1, "torn result: {resp:?}");
                    seen += 1;
                }
                seen
            })
        })
        .collect();

    // The single writer keeps growing the chain and compacting.
    for i in 5..25 {
        setup
            .request(&format!("INSERT INTO Account VALUES ('A{i}')"))
            .expect("write account");
        setup
            .request(&format!(
                "INSERT INTO Transfer VALUES ({}, 'A{}', 'A{i}', {}, {})",
                i - 1,
                i - 1,
                100 + i,
                500 + i
            ))
            .expect("write transfer");
        if i % 8 == 0 {
            setup.request("COMPACT").expect("compact");
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for r in readers {
        assert!(r.join().expect("reader thread") > 0);
    }
    // Final state agrees with a fresh sequential engine fed the same
    // statements (the divergence oracle).
    let final_rows = setup.request(QUERY).expect("final read");
    let oracle = Engine::new();
    let mut sess = pgq_server::SessionState::default();
    let mut expected = Vec::new();
    let mut feed = |stmt: &str| expected = oracle.statement(&mut sess, stmt);
    feed("CREATE TABLE Account (iban)");
    feed("CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount)");
    feed(GRAPH_DDL);
    for i in 0..25 {
        feed(&format!("INSERT INTO Account VALUES ('A{i}')"));
    }
    for i in 0..4 {
        feed(&format!(
            "INSERT INTO Transfer VALUES ({i}, 'A{i}', 'A{}', {}, {})",
            i + 1,
            100 + i,
            500 + i
        ));
    }
    for i in 5..25 {
        feed(&format!(
            "INSERT INTO Transfer VALUES ({}, 'A{}', 'A{i}', {}, {})",
            i - 1,
            i - 1,
            100 + i,
            500 + i
        ));
    }
    feed(QUERY);
    assert_eq!(final_rows, expected, "server diverged from oracle");
    server.stop();
}

#[test]
fn graph_over_declared_tables_answers_before_and_after_rows() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 0);
    let resp = client.request(QUERY).expect("query on empty tables");
    assert_eq!(resp, ["-- 0 row(s)"]);
    let resp = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(resp[0], "-- query profile", "{resp:?}");
    for stmt in [
        "INSERT INTO Account VALUES ('A0')",
        "INSERT INTO Account VALUES ('A1')",
        "INSERT INTO Transfer VALUES (0, 'A0', 'A1', 100, 500)",
    ] {
        let resp = client.request(stmt).expect("insert");
        assert_eq!(resp.len(), 1, "staging note: {resp:?}");
    }
    let resp = client.request(QUERY).expect("query after inserts");
    assert_eq!(resp, ["-- 1 row(s)", "(\"A0\", \"A1\")"]);
    server.stop();
}

#[test]
fn every_read_kind_answers_the_recorded_staging_error() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 3);
    // An edge to a node that does not exist makes the view invalid.
    let resp = client
        .request("INSERT INTO Transfer VALUES (9, 'A0', 'GHOST', 1, 900)")
        .expect("dangling insert");
    assert!(
        resp[0].contains("graph Transfers unstaged: invalid graph view"),
        "{resp:?}"
    );
    let select = client.request(QUERY).expect("select");
    let explain = client
        .request(&format!("EXPLAIN {QUERY}"))
        .expect("explain");
    let analyze = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(select.len(), 1, "{select:?}");
    assert!(select[0].starts_with("!! invalid graph view"), "{select:?}");
    assert_eq!(explain, select, "EXPLAIN disagrees with SELECT");
    assert_eq!(analyze, select, "EXPLAIN ANALYZE disagrees with SELECT");
    // The node the edge points at arrives: the view is valid again and
    // all three read kinds answer.
    let resp = client
        .request("INSERT INTO Account VALUES ('GHOST')")
        .expect("fixing insert");
    assert_eq!(resp, ["-- inserted into Account"]);
    let select = client.request(QUERY).expect("select");
    assert_eq!(select[0], "-- 4 row(s)", "{select:?}");
    let explain = client
        .request(&format!("EXPLAIN {QUERY}"))
        .expect("explain");
    assert_eq!(explain[0], "-- physical plan", "{explain:?}");
    let analyze = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(analyze[0], "-- query profile", "{analyze:?}");
    server.stop();
}

#[test]
fn compaction_alongside_ddl_and_writes_loses_no_graph() {
    const GRAPHS: usize = 24;
    let server = start_server();
    let addr = server.addr();
    let mut setup = Client::connect(addr).expect("connect");
    load_demo(&mut setup, 3);

    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let compactor = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect compactor");
            let mut runs = 0usize;
            while !done.load(std::sync::atomic::Ordering::Relaxed) || runs == 0 {
                let resp = client.request("COMPACT").expect("compact");
                assert!(resp[0].starts_with("-- compacted:"), "{resp:?}");
                runs += 1;
            }
            runs
        })
    };
    // Each new graph is defined, then written through, while COMPACT
    // swaps snapshots on the other connection.
    for g in 0..GRAPHS {
        let ddl = GRAPH_DDL.replace("Transfers", &format!("G{g}"));
        let resp = setup.request(&ddl).expect("define graph");
        assert_eq!(resp, [format!("-- property graph G{g} defined")]);
        let resp = setup
            .request(&format!("INSERT INTO Account VALUES ('B{g}')"))
            .expect("insert");
        assert!(resp[0].starts_with("-- inserted into Account"), "{resp:?}");
    }
    done.store(true, std::sync::atomic::Ordering::Relaxed);
    assert!(compactor.join().expect("compactor thread") > 0);

    let expected = setup.request(QUERY).expect("oracle read");
    assert_eq!(expected[0], "-- 3 row(s)", "{expected:?}");
    for g in 0..GRAPHS {
        let query = QUERY.replace("Transfers", &format!("G{g}"));
        let resp = setup.request(&query).expect("select");
        assert_eq!(resp, expected, "graph G{g} diverged");
        let resp = setup
            .request(&format!("EXPLAIN ANALYZE {query}"))
            .expect("analyze");
        assert_eq!(resp[0], "-- query profile", "graph G{g}: {resp:?}");
    }
    server.stop();
}

#[test]
fn multibyte_string_literals_round_trip() {
    let engine = Engine::new();
    let mut sess = pgq_server::SessionState::default();
    for stmt in [
        "CREATE TABLE Account (iban, owner)",
        "CREATE TABLE Transfer (t_id, src_iban, tgt_iban)",
        "CREATE PROPERTY GRAPH Owners ( \
         NODES TABLE Account KEY (iban) PROPERTIES (owner), \
         EDGES TABLE Transfer KEY (t_id) \
           SOURCE KEY src_iban REFERENCES Account \
           TARGET KEY tgt_iban REFERENCES Account)",
        "INSERT INTO Account VALUES ('A1', 'Zoë')",
        "INSERT INTO Account VALUES ('A2', 'Zoe')",
    ] {
        let resp = engine.statement(&mut sess, stmt);
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "{stmt}: {resp:?}"
        );
    }
    let resp = engine.statement(
        &mut sess,
        "SELECT * FROM GRAPH_TABLE (Owners MATCH (x) WHERE x.owner = 'Zoë' RETURN (x.iban, x.owner))",
    );
    assert_eq!(resp, ["-- 1 row(s)", "(\"A1\", \"Zoë\")"]);
}

#[test]
fn mutations_outside_the_catalog_change_nothing() {
    let server = start_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    load_demo(&mut client, 3);
    let before = client.request(QUERY).expect("query");
    assert_eq!(before[0], "-- 3 row(s)", "{before:?}");
    for (stmt, want) in [
        ("INSERT INTO Nowhere VALUES (1)", "!! unknown table Nowhere"),
        ("DELETE FROM Nowhere VALUES (1)", "!! unknown table Nowhere"),
        (
            "INSERT INTO Account VALUES ('A1', 7)",
            "!! table Account declares 1 column(s), row has 2 value(s)",
        ),
        (
            "DELETE FROM Transfer VALUES (0, 'A0')",
            "!! table Transfer declares 5 column(s), row has 2 value(s)",
        ),
    ] {
        let resp = client.request(stmt).expect("rejected mutation");
        assert_eq!(resp, [want], "{stmt}");
    }
    // The table and its graph still answer, and take the next rows.
    assert_eq!(client.request(QUERY).expect("query"), before);
    let resp = client
        .request(&format!("EXPLAIN ANALYZE {QUERY}"))
        .expect("analyze");
    assert_eq!(resp[0], "-- query profile", "{resp:?}");
    for stmt in [
        "INSERT INTO Account VALUES ('A3')",
        "INSERT INTO Transfer VALUES (2, 'A2', 'A3', 102, 502)",
    ] {
        let resp = client.request(stmt).expect("insert");
        assert_eq!(resp.len(), 1, "staging note: {resp:?}");
        assert!(resp[0].starts_with("-- inserted into"), "{resp:?}");
    }
    let resp = client.request(QUERY).expect("query after inserts");
    assert_eq!(resp[0], "-- 6 row(s)", "{resp:?}");
    server.stop();
}

/// The seven read shapes of the front-door benchmark, over its schema.
const BENCH_SHAPES: [&str; 7] = [
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]-> (y) WHERE x.owner = 1 \
     RETURN (x.iban, t.t_id, y.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]-> (y) WHERE t.amount = 502 \
     RETURN (x.iban, t.t_id, y.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]-> (y) -[u:Transfer]-> (z) \
     WHERE x.owner = 1 RETURN (x.iban, t.t_id, u.t_id, z.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]->{1,2} (y) WHERE x.owner = 1 \
     RETURN (x.iban, y.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t]->+ (y) RETURN (x.iban, y.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]->+ (y) RETURN (x.iban, y.iban))",
    "SELECT * FROM GRAPH_TABLE (Bank MATCH (x) -[t:Transfer]->+ (y) WHERE t.amount > 501 \
     RETURN (x.iban, y.iban))",
];

#[test]
fn served_reads_never_rebuild_a_view() {
    let engine = Engine::new();
    let mut sess = pgq_server::SessionState::default();
    let mut run = |stmt: &str| {
        let resp = engine.statement(&mut sess, stmt);
        assert!(
            resp.iter().all(|l| !l.starts_with("!! ")),
            "{stmt}: {resp:?}"
        );
        resp
    };
    run("CREATE TABLE Account (iban, owner, blocked)");
    run("CREATE TABLE Transfer (t_id, src_iban, tgt_iban, amount)");
    for i in 0..6 {
        run(&format!(
            "INSERT INTO Account VALUES ('A{i}', {}, false)",
            i % 3
        ));
    }
    run("CREATE PROPERTY GRAPH Bank ( \
         NODES TABLE Account KEY (iban) LABEL Account PROPERTIES (owner, blocked), \
         EDGES TABLE Transfer KEY (t_id) \
         SOURCE KEY src_iban REFERENCES Account \
         TARGET KEY tgt_iban REFERENCES Account \
         LABEL Transfer PROPERTIES (amount))");
    for i in 0..5 {
        run(&format!(
            "INSERT INTO Transfer VALUES ({i}, 'A{i}', 'A{}', {})",
            i + 1,
            500 + i
        ));
    }
    let read_all = |run: &mut dyn FnMut(&str) -> Vec<String>| {
        for shape in BENCH_SHAPES {
            let rows = run(shape);
            assert!(rows[0].ends_with("row(s)"), "{shape}: {rows:?}");
            let profile = run(&format!("EXPLAIN ANALYZE {shape}"));
            assert_eq!(profile[0], "-- query profile", "{shape}: {profile:?}");
            let plan = run(&format!("EXPLAIN {shape}"));
            assert_eq!(plan[0], "-- physical plan", "{shape}: {plan:?}");
        }
    };
    run("METRICS RESET");
    for k in 0..4 {
        read_all(&mut run);
        let row = format!("(100, 'A{k}', 'A{}', 501)", k + 2);
        run(&format!("INSERT INTO Transfer VALUES {row}"));
        read_all(&mut run);
        run(&format!("DELETE FROM Transfer VALUES {row}"));
        if k == 2 {
            run("COMPACT");
        }
    }
    read_all(&mut run);
    let json = run("METRICS JSON").join("\n");
    assert!(json.contains("\"view_rebuilds\": 0"), "{json}");
    // The counter is live: it is what a fallback would move.
    assert!(json.contains("\"index_scan_rows\""), "{json}");
}
