//! Self-tests of the benchmark at about 50 accounts: the oracle agrees
//! with the server on all seven shapes, generation is deterministic,
//! the replica answers as the engine does, and the percentile helper
//! and the core-speed scaling are right on known inputs.

use pgq_perfbench::gen::{Bank, Shape, Workload};
use pgq_perfbench::oracle::{dump_sql, same_answer, Oracle};
use pgq_perfbench::run::{replay_dump, write_expected, writer_leftover, Served};
use pgq_perfbench::speed::{Gauge, REFERENCE_MS};
use pgq_perfbench::stats::{quantile, Summary};
use pgq_perfbench::trace::{json_u64, Replica, Tracer};
use pgq_server::engine::split_statements;

fn small(workload: Workload, seed: u64) -> Bank {
    match workload {
        Workload::ReachScan => Bank::ring_graph(48, seed),
        _ => Bank::transfers_graph(48, seed),
    }
}

#[test]
fn oracle_agrees_with_the_server_on_every_shape() {
    for workload in [Workload::HopRead, Workload::ReachScan] {
        for seed in [1, 2] {
            let bank = small(workload, seed);
            let mut served = Served::start(&bank.setup_lines()).expect("set-up");
            let mut oracle = Oracle::new(&bank);
            for k in 0..4 * workload.shapes().len() {
                let read = workload.read_at(&bank, seed, k);
                let got = served.client.request(&read.sql()).expect("request");
                let expected = oracle.response(&read);
                assert!(
                    same_answer(&expected, &got),
                    "{:?} c={} seed {seed}: expected {expected:?}, got {got:?}",
                    read.shape,
                    read.c
                );
            }
            served.shut_down();
        }
    }
}

#[test]
fn every_shape_is_covered_and_answers_are_nonempty() {
    let mut seen = Vec::new();
    for workload in [Workload::HopRead, Workload::ReachScan] {
        let bank = small(workload, 3);
        let mut oracle = Oracle::new(&bank);
        for k in 0..workload.shapes().len() {
            let read = workload.read_at(&bank, 3, k);
            assert!(!oracle.rows(&read).is_empty(), "{:?} is empty", read.shape);
            seen.push(read.shape);
        }
    }
    seen.sort();
    seen.dedup();
    assert_eq!(seen, Shape::ALL.to_vec());
}

#[test]
fn writes_and_final_state_match_the_oracle_and_a_sequential_replay() {
    let bank = small(Workload::WriteMix, 4);
    let mut served = Served::start(&bank.setup_lines()).expect("set-up");
    let writes = 5;
    for k in 0..writes {
        let resp = served.client.request(&bank.write_at(k)).expect("write");
        assert_eq!(resp, write_expected(k));
    }
    let oracle = Oracle::new(&bank);
    let expected = oracle.dump(&writer_leftover(&bank, writes));
    assert_eq!(expected.len(), bank.transfers.len() + 2);
    let served_dump = served.client.request(&dump_sql()).expect("dump");
    assert!(same_answer(&expected, &served_dump));
    assert!(same_answer(&expected, &replay_dump(&bank, writes)));
    served.shut_down();
}

#[test]
fn generation_is_deterministic_per_seed() {
    for workload in Workload::ALL {
        let text = |seed: u64| {
            let bank = small(workload, seed);
            let mut lines = bank.setup_lines();
            lines.extend((0..20).map(|k| workload.read_at(&bank, seed, k).sql()));
            lines.extend((0..4).map(|k| bank.write_at(k)));
            lines
        };
        assert_eq!(text(7), text(7), "{} is not deterministic", workload.name());
        assert_ne!(text(7), text(8), "{} ignores the seed", workload.name());
    }
    // The full-size graphs too.
    assert_eq!(
        Workload::HopRead.graph(5).setup_lines(),
        Workload::HopRead.graph(5).setup_lines()
    );
    assert_ne!(
        Workload::ReachScan.graph(5).setup_lines(),
        Workload::ReachScan.graph(6).setup_lines()
    );
}

#[test]
fn setup_lines_fit_the_protocol_line_bound() {
    for workload in Workload::ALL {
        for line in workload.graph(1).setup_lines() {
            assert!(line.len() < pgq_server::MAX_LINE);
        }
    }
}

#[test]
fn replica_answers_as_the_engine_does() {
    for workload in [Workload::HopRead, Workload::ReachScan] {
        let bank = small(workload, 9);
        let lines = bank.setup_lines();
        let mut served = Served::start(&lines).expect("set-up");
        let mut replica = Replica::default();
        let mut tr = Tracer::default();
        for line in &lines {
            for stmt in split_statements(line) {
                replica.execute(&mut tr, stmt.trim());
            }
        }
        let mut oracle = Oracle::new(&bank);
        for k in 0..2 * workload.shapes().len() {
            let read = workload.read_at(&bank, 9, k);
            let expected = oracle.response(&read);
            tr.next_statement();
            assert!(same_answer(
                &expected,
                &replica.execute(&mut tr, &read.sql())
            ));
        }
        for k in 0..3 {
            let sql = bank.write_at(k);
            let served_resp = served.client.request(&sql).expect("write");
            let stmt = tr.next_statement();
            assert_eq!(replica.execute(&mut tr, &sql), served_resp);
            // Every write goes through the six registrations and the
            // view-graph freeze inside one writer batch.
            let calls = |name: &str| {
                tr.spans()
                    .iter()
                    .filter(|s| s.stmt == stmt && s.name == name)
                    .count()
            };
            assert_eq!(calls("store.register_relation"), 6);
            assert_eq!(calls("store.register_view_graph"), 1);
            assert_eq!(calls("store.write_batch"), 1);
            assert!(tr.layer_ms(stmt) > 0.0);
        }
        served.shut_down();
    }
}

#[test]
fn tracer_self_time_subtracts_children() {
    let mut tr = Tracer::default();
    tr.next_statement();
    let outer = tr.enter("outer");
    tr.span("inner", || {
        std::thread::sleep(std::time::Duration::from_millis(5))
    });
    tr.exit(outer);
    let times = tr.self_times();
    let (calls, total, own) = times["outer"];
    assert_eq!(calls, 1);
    assert!(total >= 5.0 && own < total && own >= 0.0);
    assert_eq!(tr.layer_ms(1), total, "only top-level spans count");
}

#[test]
fn percentiles_on_known_inputs() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.5), Some(5.5));
    assert!((quantile(&v, 0.9).unwrap() - 9.1).abs() < 1e-12);
    assert_eq!(quantile(&v, 0.0), Some(1.0));
    assert_eq!(quantile(&v, 1.0), Some(10.0));
    assert_eq!(quantile(&[4.0], 0.9), Some(4.0));
    assert_eq!(quantile(&[], 0.5), None);

    let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
    assert_eq!((s.n, s.p50, s.beyond_p90), (5, 3.0, 1));
    assert!((s.p90 - 4.6).abs() < 1e-12);
    assert!(!s.tail_supported());

    let many: Vec<f64> = (0..200).map(f64::from).collect();
    let s = Summary::of(&many).unwrap();
    assert_eq!(s.beyond_p90, 20);
    assert!(s.tail_supported());
}

#[test]
fn calibration_scales_times_to_the_reference_core() {
    let r = REFERENCE_MS;
    let ms = [10.0, 20.0, 30.0];
    let reference = Gauge {
        samples: vec![r; 4],
    };
    assert_eq!(reference.scale(&ms), ms);
    assert_eq!(reference.slowdown(), 1.0);
    let twice_as_slow = Gauge {
        samples: vec![2.0 * r; 4],
    };
    assert_eq!(twice_as_slow.scale(&ms), [5.0, 10.0, 15.0]);
    assert_eq!(twice_as_slow.slowdown(), 2.0);
    // One outlying sample does not move the speed around any statement.
    let spike = Gauge {
        samples: vec![r, r, 10.0 * r, r],
    };
    assert_eq!(spike.scale(&ms), ms);
    let mut measured = Gauge::default();
    measured.sample();
    assert!(measured.samples[0] > 0.0);
}

#[test]
fn json_counter_lookup() {
    let text = "{\n  \"dictionary_total\": 9,\n  \"total\": 1234,\n  \"x\": 5\n}";
    assert_eq!(json_u64(text, "total"), Some(1234));
    assert_eq!(json_u64(text, "dictionary_total"), Some(9));
    assert_eq!(json_u64(text, "missing"), None);
}
