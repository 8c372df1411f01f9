//! The untraced run: an in-process server over loopback, closed-loop
//! connections, every answer checked, the end-to-end metrics.

use crate::gen::{Bank, Read, Workload};
use crate::oracle::{dump_sql, same_answer, Oracle};
use crate::speed::Gauge;
use crate::stats::{median, Summary};
use pgq_server::{engine::split_statements, Client, Engine, Server, SessionState};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Fresh servers set up per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;
/// Writer statements run untimed before timing starts (one
/// insert/delete pair).
pub const WARM_WRITES: usize = 2;
/// Executor workers per connection (`SET THREADS`). The benchmark
/// drives at most two connections on a two-core machine; one worker
/// each keeps them from contending for cores with their own helpers.
pub const THREADS: usize = 1;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a run prints: report lines, then the result object.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report lines.
    pub report: Vec<String>,
    /// Statements checked.
    pub attempted: u64,
    /// Statements that failed: an error response, a socket error, or an
    /// answer that differs from the oracle.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// The metrics, in order.
    pub metrics: Vec<Metric>,
}

/// Checked-statement tally.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Statements checked.
    pub attempted: u64,
    /// Statements that failed.
    pub failed: u64,
}

impl Tally {
    /// Records one checked statement.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another tally.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A served, loaded engine and one connection to it.
pub struct Served {
    /// The server.
    pub server: Server,
    /// The engine it serves.
    pub engine: Arc<Engine>,
    /// A connection that sent the set-up script.
    pub client: Client,
    /// Seconds from an empty server to the answered graph DDL.
    pub setup_s: f64,
}

impl Served {
    /// Starts an empty server and sends the set-up script over one
    /// connection. Any error response fails the set-up.
    pub fn start(lines: &[String]) -> Result<Served, String> {
        let start = Instant::now();
        let engine = Arc::new(Engine::new());
        let server =
            Server::bind(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let mut client = connect(server.addr())?;
        for line in lines {
            let resp = client.request(line).map_err(|e| format!("set-up: {e}"))?;
            if let Some(bad) = resp
                .iter()
                .find(|l| l.starts_with("!! ") || l.contains("unstaged"))
            {
                return Err(format!("set-up statement failed: {bad}"));
            }
        }
        let setup_s = start.elapsed().as_secs_f64();
        Ok(Served {
            server,
            engine,
            client,
            setup_s,
        })
    }

    /// Closes the connection, stops the server and waits (up to five
    /// seconds) until its session thread has released the engine, so
    /// the next set-up does not overlap this one in memory.
    pub fn shut_down(self) {
        let Served {
            server,
            engine,
            client,
            ..
        } = self;
        let weak: Weak<Engine> = Arc::downgrade(&engine);
        drop(engine);
        drop(client);
        server.stop();
        let deadline = Instant::now() + Duration::from_secs(5);
        while weak.strong_count() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

/// Set-up times of one run.
#[derive(Debug, Clone, Copy)]
pub struct SetUp {
    /// Median set-up time, as timed.
    pub timed_s: f64,
    /// Median set-up time on the reference core (see `speed`).
    pub scaled_s: f64,
    /// Median slowdown of the core against the reference core.
    pub slowdown: f64,
}

/// Sets up `reps` fresh servers and keeps the last; returns it with
/// the median set-up times.
pub fn set_up(lines: &[String], reps: usize) -> Result<(Served, SetUp), String> {
    let mut times = Vec::with_capacity(reps);
    let mut gauge = Gauge::default();
    let mut last: Option<Served> = None;
    for _ in 0..reps.max(1) {
        if let Some(prev) = last.take() {
            prev.shut_down();
        }
        gauge.sample();
        let served = Served::start(lines)?;
        times.push(served.setup_s);
        last = Some(served);
    }
    gauge.sample();
    let served = last.expect("at least one set-up");
    Ok((
        served,
        SetUp {
            timed_s: median(&times),
            scaled_s: median(&gauge.scale(&times)),
            slowdown: gauge.slowdown(),
        },
    ))
}

/// Connects to `addr` and sets the connection's executor workers to
/// [`THREADS`].
pub fn connect(addr: std::net::SocketAddr) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let resp = client
        .request(&format!("SET THREADS {THREADS}"))
        .map_err(|e| format!("SET THREADS: {e}"))?;
    if !resp.iter().all(|l| l.starts_with("-- threads set to")) {
        return Err(format!("SET THREADS failed: {resp:?}"));
    }
    Ok(client)
}

/// Sends `sql` and checks the response against `expected`; returns
/// the latency in ms and whether it matched.
pub fn checked(client: &mut Client, sql: &str, expected: &[String]) -> (f64, bool) {
    let start = Instant::now();
    let resp = client.request(sql);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    (ms, resp.is_ok_and(|r| same_answer(expected, &r)))
}

/// The expected response of write `k`.
pub fn write_expected(k: usize) -> Vec<String> {
    vec![Bank::write_ack(k).to_string()]
}

/// Latencies of one closed loop.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Per-statement latency, ms.
    pub ms: Vec<f64>,
    /// Core-speed samples: one before each statement, one after the
    /// last.
    pub gauge: Gauge,
    /// Checks.
    pub tally: Tally,
    /// The next statement index of the sequence.
    pub next: usize,
}

impl LoopResult {
    /// An empty loop that starts at statement `next`.
    pub fn starting_at(next: usize) -> LoopResult {
        LoopResult {
            next,
            ..LoopResult::default()
        }
    }
}

/// Sends read `out.next` of the workload's sequence and records its
/// latency; the answer is checked after the latency is taken.
fn read_step(
    client: &mut Client,
    oracle: &mut Oracle,
    workload: Workload,
    seed: u64,
    out: &mut LoopResult,
) {
    let read = workload.read_at(oracle.bank(), seed, out.next);
    let expected = oracle.response(&read);
    out.gauge.sample();
    let (ms, ok) = checked(client, &read.sql(), &expected);
    out.ms.push(ms);
    out.tally.record(ok);
    out.next += 1;
}

/// Sends writer statement `out.next` and records its latency.
fn write_step(client: &mut Client, bank: &Bank, out: &mut LoopResult) {
    out.gauge.sample();
    let (ms, ok) = checked(client, &bank.write_at(out.next), &write_expected(out.next));
    out.ms.push(ms);
    out.tally.record(ok);
    out.next += 1;
}

/// Runs reads `from..` of the workload's sequence until `deadline`.
pub fn read_loop(
    client: &mut Client,
    workload: Workload,
    bank: &Bank,
    seed: u64,
    from: usize,
    deadline: Instant,
) -> LoopResult {
    let mut oracle = Oracle::new(bank);
    let mut out = LoopResult::starting_at(from);
    while Instant::now() < deadline {
        read_step(client, &mut oracle, workload, seed, &mut out);
    }
    out.gauge.sample();
    out
}

/// Runs writer statements `from..` until `deadline` or until `limit`
/// statements have run.
pub fn write_loop(
    client: &mut Client,
    bank: &Bank,
    from: usize,
    deadline: Instant,
    limit: usize,
) -> LoopResult {
    let mut out = LoopResult::starting_at(from);
    while Instant::now() < deadline && out.ms.len() < limit {
        write_step(client, bank, &mut out);
    }
    out.gauge.sample();
    out
}

/// Reads `from..` on `reader` until `deadline`, with one write on
/// `prober` after every read: the write probe samples the whole run
/// while the read server never sees a write.
pub fn probed_read_loop(
    reader: &mut Client,
    prober: &mut Client,
    workload: Workload,
    bank: &Bank,
    seed: u64,
    (from, write_from): (usize, usize),
    deadline: Instant,
) -> (LoopResult, LoopResult) {
    let mut oracle = Oracle::new(bank);
    let mut reads = LoopResult::starting_at(from);
    let mut writes = LoopResult::starting_at(write_from);
    while Instant::now() < deadline {
        read_step(reader, &mut oracle, workload, seed, &mut reads);
        write_step(prober, bank, &mut writes);
    }
    reads.gauge.sample();
    writes.gauge.sample();
    (reads, writes)
}

/// Runs each of the workload's shapes once, untimed, checked.
pub fn warm_reads(client: &mut Client, workload: Workload, bank: &Bank, seed: u64) -> Tally {
    let mut oracle = Oracle::new(bank);
    let mut tally = Tally::default();
    for k in 0..workload.shapes().len() {
        let read: Read = workload.read_at(bank, seed, k);
        let (_, ok) = checked(client, &read.sql(), &oracle.response(&read));
        tally.record(ok);
    }
    tally
}

/// The writer row still present after writer statements `0..writes`
/// (an insert without its delete when `writes` is odd).
pub fn writer_leftover(bank: &Bank, writes: usize) -> Vec<crate::gen::Transfer> {
    if writes % 2 == 1 {
        vec![bank.writer_row(writes / 2)]
    } else {
        Vec::new()
    }
}

/// Replays the set-up rows and writer statements `0..writes` into a
/// fresh engine, sequentially and in-process, then defines the graph
/// and returns its answer to the dump query. Rows and writes go in
/// before the graph DDL, so the replay restages once.
pub fn replay_dump(bank: &Bank, writes: usize) -> Vec<String> {
    let engine = Engine::new();
    let mut session = SessionState::default();
    let lines = bank.setup_lines();
    let (ddl, rows) = lines.split_last().expect("set-up has a graph DDL");
    let mut run = |line: &str| {
        for stmt in split_statements(line) {
            engine.statement(&mut session, stmt.trim());
        }
    };
    for line in rows {
        run(line);
    }
    for k in 0..writes {
        run(&bank.write_at(k));
    }
    run(ddl);
    engine.statement(&mut session, &dump_sql())
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced run of `workload` for `seconds` of timed load.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let bank = workload.graph(seed);
    let lines = bank.setup_lines();
    let (mut served, setup) = set_up(&lines, SETUP_REPS)?;
    let mut tally = warm_reads(&mut served.client, workload, &bank, seed);
    let from = workload.shapes().len();
    let mut twin: Option<Served> = None;

    let (reads, writes) = if workload == Workload::WriteMix {
        let warm = write_loop(&mut served.client, &bank, 0, far(), WARM_WRITES);
        tally.add(warm.tally);
        let addr = served.server.addr();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let bank = &bank;
        std::thread::scope(|s| -> Result<(LoopResult, LoopResult), String> {
            let writer = s.spawn(move || -> Result<LoopResult, String> {
                let mut client = connect(addr)?;
                Ok(write_loop(
                    &mut client,
                    bank,
                    warm.next,
                    deadline,
                    usize::MAX,
                ))
            });
            let mut client = connect(addr)?;
            let reads = read_loop(&mut client, workload, bank, seed, from, deadline);
            let writes = writer.join().map_err(|_| "writer thread panicked")??;
            Ok((reads, writes))
        })?
    } else {
        // The write probe goes to a twin server loaded with the same
        // script, so the read server stays read-only.
        let twin = twin.insert(Served::start(&lines)?);
        let warm = write_loop(&mut twin.client, &bank, 0, far(), WARM_WRITES);
        tally.add(warm.tally);
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        probed_read_loop(
            &mut served.client,
            &mut twin.client,
            workload,
            &bank,
            seed,
            (from, warm.next),
            deadline,
        )
    };
    tally.add(reads.tally);
    tally.add(writes.tally);
    let rss = peak_rss_mb();

    // Final state: the graph that took the writes holds the generated
    // rows plus any writer row left over, as does a fresh sequential
    // replay of the writer's statements; a read server without writes
    // holds exactly the generated rows.
    let oracle = Oracle::new(&bank);
    let expected = oracle.dump(&writer_leftover(&bank, writes.next));
    let mut report = Vec::new();
    let replayed = same_answer(&expected, &replay_dump(&bank, writes.next));
    tally.record(replayed);
    report.push(format!(
        "final state vs sequential replay of {} writer statements: {}",
        writes.next,
        if replayed { "equal" } else { "DIFFERENT" }
    ));
    if let Some(mut twin) = twin {
        let (_, ok) = checked(&mut twin.client, &dump_sql(), &expected);
        tally.record(ok);
        twin.shut_down();
        let (_, ok) = checked(&mut served.client, &dump_sql(), &oracle.dump(&[]));
        tally.record(ok);
    } else {
        let (_, ok) = checked(&mut served.client, &dump_sql(), &expected);
        tally.record(ok);
    }
    served.shut_down();

    // Latencies on the reference core (see `speed`).
    let read_ms = reads.gauge.scale(&reads.ms);
    let write_ms = writes.gauge.scale(&writes.ms);
    let read_sum = Summary::of(&read_ms).ok_or("no read completed")?;
    let write_sum = Summary::of(&write_ms).ok_or("no write completed")?;
    report.push(format!(
        "setup_s median of {SETUP_REPS}, scaled: {:.4} s; as timed: {:.4} s",
        setup.scaled_s, setup.timed_s
    ));
    report.push(format!(
        "core slowdown against the reference core (median): {:.3} in set-up, {:.3} on reads, {:.3} on writes",
        setup.slowdown,
        reads.gauge.slowdown(),
        writes.gauge.slowdown()
    ));
    report.push(format!(
        "reads, scaled to the reference core: {}",
        read_sum.describe("ms")
    ));
    if let Some(raw) = Summary::of(&reads.ms) {
        report.push(format!("reads, as timed: {}", raw.describe("ms")));
    }
    let shapes = workload.shapes();
    for shape in crate::gen::Shape::ALL {
        let ms: Vec<f64> = (0..read_ms.len())
            .filter(|i| shapes[(from + i) % shapes.len()] == shape)
            .map(|i| read_ms[i])
            .collect();
        if let Some(sum) = Summary::of(&ms) {
            report.push(format!("  {}: {}", shape.name(), sum.describe("ms")));
        }
    }
    report.push(format!(
        "writes{}, scaled to the reference core: {}",
        if workload == Workload::WriteMix {
            " (concurrent writer)"
        } else {
            " (probe: one write to a twin server after every read)"
        },
        write_sum.describe("ms")
    ));
    if let Some(raw) = Summary::of(&writes.ms) {
        report.push(format!("writes, as timed: {}", raw.describe("ms")));
    }
    for (kind, parity) in [("insert", 0), ("delete", 1)] {
        let ms: Vec<f64> = (0..write_ms.len())
            .filter(|i| (WARM_WRITES + i) % 2 == parity)
            .map(|i| write_ms[i])
            .collect();
        if let Some(sum) = Summary::of(&ms) {
            report.push(format!("  {kind}: {}", sum.describe("ms")));
        }
    }
    let success = 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64;
    let metrics = vec![
        Metric::new("setup_s", setup.scaled_s, "s"),
        Metric::new("read_qps", rate(&read_ms), "statements/s"),
        Metric::new("read_p50_ms", read_sum.p50, "ms"),
        Metric::new("read_p90_ms", read_sum.p90, "ms"),
        Metric::new("write_qps", rate(&write_ms), "statements/s"),
        Metric::new("write_p50_ms", write_sum.p50, "ms"),
        Metric::new("write_p90_ms", write_sum.p90, "ms"),
        Metric::new("success_rate", success, "fraction"),
        Metric::new("peak_rss_mb", rss, "MiB"),
    ];
    Ok(Outcome {
        report,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        metrics,
    })
}

/// Statements completed per second of time spent waiting on the server.
fn rate(ms: &[f64]) -> f64 {
    let total: f64 = ms.iter().sum();
    if total > 0.0 {
        ms.len() as f64 * 1e3 / total
    } else {
        0.0
    }
}

/// A deadline that never passes within a run.
fn far() -> Instant {
    Instant::now() + Duration::from_secs(86_400)
}
