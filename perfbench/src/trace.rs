//! The traced run: per-layer numbers from the benchmark's own files.
//!
//! Every statement goes to the server over loopback, then to the same
//! engine in-process (`Engine::statement`), then through [`Replica`]: a
//! copy of the engine's pipeline that calls the same public layer
//! functions in the engine's order, each wrapped in a span. Nothing
//! inside the program changes. `trace.coverage.*` compares the sum of
//! a statement's layer spans with the in-process engine time, so a
//! pipeline change that the replica does not follow shows as coverage
//! far from 1.

use crate::gen::{Bank, Read, Shape, Workload};
use crate::oracle::{same_answer, Oracle};
use crate::run::{self, Metric, Outcome, Tally, WARM_WRITES};
use crate::stats::median;
use pgq_core::{
    build_view, eval_with_snapshot, eval_with_snapshot_profiled, EvalConfig, Query, ViewOp,
};
use pgq_exec::PlanMetrics;
use pgq_parser::{lower_query, parse_statement, Outcome as Defined, Session, Statement};
use pgq_relational::{Database, RelName, Relation};
use pgq_server::{engine::split_statements, Client, Engine, SessionState};
use pgq_store::{ConcurrentStore, GraphForm, Store, StoreSnapshot};
use pgq_value::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Round trips timed for `server.noop_roundtrip_us`.
const NOOP_ROUNDTRIPS: usize = 200;
/// Writes traced after the reads on the read-only workloads (the
/// untraced run sends its probe writes to a twin server instead).
const TRACED_WRITES: usize = 16;

/// One timed layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// The statement the call served.
    pub stmt: u32,
    /// Layer call name.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder; spans are written out when the run ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next statement; later spans belong to it.
    pub fn next_statement(&mut self) -> u32 {
        self.stmt += 1;
        self.stmt
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            stmt: self.stmt,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Times `f` as span `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Forgets every span (the set-up is not traced).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.open.clear();
    }

    /// Summed duration, ms, of statement `stmt`'s top-level spans,
    /// excluding the attribution probes.
    pub fn layer_ms(&self, stmt: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.stmt == stmt && s.parent.is_none() && !s.name.starts_with("probe."))
            .map(Span::ms)
            .sum()
    }

    /// Summed duration, ms, of statement `stmt`'s spans named `name`.
    pub fn named_ms(&self, stmt: u32, name: &str) -> Option<f64> {
        let mut found = None;
        for s in self
            .spans
            .iter()
            .filter(|s| s.stmt == stmt && s.name == name)
        {
            *found.get_or_insert(0.0) += s.ms();
        }
        found
    }

    /// Per span name: calls, total ms and self ms (duration minus the
    /// part covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
            e.2 += s.ms() - child_ms[i];
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"stmt\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.stmt, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// One staged graph of the replica: the six view relations under the
/// engine's reserved names, and the identifier arity.
#[derive(Debug, Clone)]
struct Staged {
    names: [RelName; 6],
    k: usize,
    db: Database,
}

/// The engine's reserved staged-relation names of graph `g`.
fn staged_names(g: &str) -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(|c| RelName::new(format!("⟨{c}:{g}⟩")))
}

/// The staged graphs a read evaluates against; like the engine's read
/// view, replaced wholesale on every publish.
type Graphs = Arc<BTreeMap<String, Staged>>;

/// A read answered by the replica, kept for the probes.
struct Answer {
    rel: Relation,
    query: Query,
    graphs: Graphs,
    graph: String,
    snap: StoreSnapshot,
}

impl Answer {
    fn staged(&self) -> &Staged {
        &self.graphs[&self.graph]
    }
}

/// A copy of `pgq_server::Engine`'s statement pipeline over its own
/// state, calling the same public layer functions in the same order,
/// each in a span.
pub struct Replica {
    base: Mutex<(Database, Session)>,
    store: ConcurrentStore,
    graphs: Graphs,
    cfg: EvalConfig,
}

impl Default for Replica {
    fn default() -> Self {
        Replica {
            base: Mutex::new((Database::new(), Session::new())),
            store: ConcurrentStore::new(Store::new()),
            graphs: Arc::new(BTreeMap::new()),
            cfg: EvalConfig::physical(),
        }
    }
}

/// The engine's literal syntax: integers, booleans, quoted strings.
fn parse_value(v: &str) -> Result<Value, String> {
    if let Some(s) = v.strip_prefix('\'') {
        return Ok(Value::str(s.trim_end_matches('\'')));
    }
    if v.eq_ignore_ascii_case("true") {
        return Ok(Value::bool(true));
    }
    if v.eq_ignore_ascii_case("false") {
        return Ok(Value::bool(false));
    }
    v.parse()
        .map(Value::int)
        .map_err(|_| format!("bad literal {v}"))
}

impl Replica {
    fn lock(&self) -> std::sync::MutexGuard<'_, (Database, Session)> {
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One statement through the replica; returns the response lines.
    pub fn execute(&mut self, tr: &mut Tracer, stmt: &str) -> Vec<String> {
        self.statement(tr, stmt).0
    }

    /// One statement, dispatched as the engine dispatches it. Returns
    /// the response lines and, for reads, the answer.
    fn statement(&mut self, tr: &mut Tracer, stmt: &str) -> (Vec<String>, Option<Answer>) {
        let (is_write, is_select) = tr.span("server.dispatch", || {
            let upper = stmt.trim().to_ascii_uppercase();
            (
                upper.starts_with("INSERT INTO") || upper.starts_with("DELETE FROM"),
                upper.starts_with("SELECT"),
            )
        });
        if is_write {
            let lines = match self.mutate(tr, stmt) {
                Ok(text) => vec![format!("-- {text}")],
                Err(e) => vec![format!("!! {e}")],
            };
            return (lines, None);
        }
        if is_select {
            return match self.select(tr, stmt) {
                Ok(answer) => {
                    let lines = tr.span("server.render", || {
                        let mut lines = vec![format!("-- {} row(s)", answer.rel.len())];
                        lines.extend(answer.rel.iter().map(|row| row.to_string()));
                        lines
                    });
                    (lines, Some(answer))
                }
                Err(e) => (vec![format!("!! {e}")], None),
            };
        }
        (self.script(tr, stmt), None)
    }

    /// DDL through the parser session, then a restage of any graph it
    /// defined.
    fn script(&mut self, tr: &mut Tracer, stmt: &str) -> Vec<String> {
        let (db, session) = self.base.get_mut().unwrap_or_else(PoisonError::into_inner);
        let mut lines = Vec::new();
        let mut defined = Vec::new();
        match session.run_script(&format!("{stmt};"), db) {
            Ok(outcomes) => {
                for o in outcomes {
                    match o {
                        Defined::TableDefined(n) => lines.push(format!("-- table {n} defined")),
                        Defined::GraphDefined(n) => {
                            lines.push(format!("-- property graph {n} defined"));
                            defined.push(n);
                        }
                        Defined::Rows(rows) => lines.push(format!("-- {} row(s)", rows.len())),
                    }
                }
            }
            Err(e) => lines.push(format!("!! {e}")),
        }
        if let Err(e) = restage(
            &self.store,
            &mut self.graphs,
            tr,
            db,
            &session.catalog,
            &defined,
        ) {
            lines.push(format!("!! {e}"));
        }
        lines
    }

    /// `INSERT INTO` / `DELETE FROM`: the engine's `mutate`.
    fn mutate(&mut self, tr: &mut Tracer, stmt: &str) -> Result<String, String> {
        let (delete, table, row) = tr.span("server.mutation_parse", || {
            let delete = stmt.to_ascii_uppercase().starts_with("DELETE FROM");
            let open = stmt.find('(').ok_or("mutation needs VALUES (…)")?;
            let close = stmt.rfind(')').ok_or("mutation needs a closing paren")?;
            let table = stmt["INSERT INTO".len()..]
                .split_whitespace()
                .next()
                .ok_or("mutation needs a table name")?
                .to_string();
            let values: Vec<Value> = stmt[open + 1..close]
                .split(',')
                .map(|v| parse_value(v.trim()))
                .collect::<Result<_, _>>()?;
            Ok::<_, String>((delete, table, Tuple::new(values)))
        })?;
        let mut base = tr.span("server.base_lock", || {
            self.base.lock().unwrap_or_else(PoisonError::into_inner)
        });
        let changed = tr.span("relational.row_write", || {
            if delete {
                Ok(base.0.remove(&table.as_str().into(), &row))
            } else {
                base.0
                    .insert(table.clone(), row.clone())
                    .map_err(|e| e.to_string())
            }
        })?;
        let affected: Vec<String> = tr.span("parser.affected_graphs", || {
            let catalog = &base.1.catalog;
            catalog
                .graph_names()
                .filter(|g| {
                    catalog.graph(g).is_ok_and(|cg| {
                        cg.node_tables.iter().any(|nt| nt.table == table)
                            || cg.edge_tables.iter().any(|et| et.table == table)
                    })
                })
                .map(String::from)
                .collect()
        });
        // Like the engine, restage while still holding the base lock.
        restage(
            &self.store,
            &mut self.graphs,
            tr,
            &base.0,
            &base.1.catalog,
            &affected,
        )?;
        drop(base);
        let verb = if delete {
            "deleted from"
        } else {
            "inserted into"
        };
        let effect = if changed { "" } else { " (no-op)" };
        Ok(format!("{verb} {table}{effect}"))
    }

    /// A `GRAPH_TABLE` read: parse, lower under the base lock, pin,
    /// evaluate on the snapshot.
    fn select(&mut self, tr: &mut Tracer, stmt: &str) -> Result<Answer, String> {
        let parsed = tr
            .span("parser.parse", || parse_statement(&format!("{stmt};")))
            .map_err(|e| e.to_string())?;
        let Statement::GraphQuery(gq) = parsed else {
            return Err("expected a GRAPH_TABLE query".into());
        };
        let base = tr.span("server.base_lock", || self.lock());
        let (out, _k) = tr.span("parser.lower", || {
            let out = lower_query(&gq, &base.1.catalog).map_err(|e| e.to_string())?;
            let k = base
                .1
                .catalog
                .id_arity(&gq.graph)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>((out, k))
        })?;
        drop(base);
        let snap = tr.span("store.pin", || self.store.pin());
        let graphs = Arc::clone(&self.graphs);
        let staged = graphs
            .get(&gq.graph)
            .ok_or_else(|| format!("graph {} is not staged", gq.graph))?;
        let query = Query::pattern_n(staged.k, out, staged.names.clone().map(Query::rel));
        let cfg = self.cfg;
        let rel = tr
            .span("core.eval", || {
                eval_with_snapshot(&query, &staged.db, cfg, &snap)
            })
            .map_err(|e| e.to_string())?;
        Ok(Answer {
            rel,
            query,
            graph: gq.graph,
            graphs,
            snap,
        })
    }
}

/// The engine's `restage`: re-derive each graph's six views, then
/// one serialized writer batch re-registers them, then publish.
fn restage(
    store: &ConcurrentStore,
    published: &mut Graphs,
    tr: &mut Tracer,
    db: &Database,
    catalog: &pgq_parser::Catalog,
    graphs: &[String],
) -> Result<(), String> {
    if graphs.is_empty() {
        return Ok(());
    }
    let mut staged = Vec::new();
    for g in graphs {
        let rels = tr
            .span("parser.view_relations", || catalog.view_relations(g, db))
            .map_err(|e| e.to_string())?;
        let gv = tr.span("server.stage_views", || -> Result<Staged, String> {
            let k = catalog.id_arity(g).map_err(|e| e.to_string())?;
            let names = staged_names(g);
            let mut sdb = Database::new();
            for (name, rel) in names.clone().into_iter().zip([
                rels.nodes,
                rels.edges,
                rels.src,
                rels.tgt,
                rels.labels,
                rels.props,
            ]) {
                sdb.add_relation(name, rel);
            }
            Ok(Staged { names, k, db: sdb })
        })?;
        staged.push((g.clone(), gv));
    }
    let batch = tr.enter("store.write_batch");
    let written = store.write(|s| -> Result<(), String> {
        for (g, gv) in &staged {
            tr.span("store.drop_graph", || s.drop_graph(g));
            for (name, rel) in gv.db.iter() {
                tr.span("store.register_relation", || {
                    s.register_relation(name.clone(), rel)
                })
                .map_err(|e| e.to_string())?;
            }
            tr.span("store.register_view_graph", || {
                s.register_view_graph(
                    g.as_str(),
                    gv.names.clone(),
                    &gv.db,
                    GraphForm::Bounded(gv.k),
                )
            })
            .map_err(|e| e.to_string())?;
        }
        Ok(())
    });
    tr.exit(batch);
    written?;
    // The engine's publish: pin the new snapshot and swap in a copy
    // of the staged-graph map with the restaged graphs replaced.
    tr.span("server.publish", || {
        let _snap = store.pin();
        let mut map = (**published).clone();
        for (g, gv) in staged {
            map.insert(g, gv);
        }
        *published = Arc::new(map);
    });
    Ok(())
}

/// The route a pattern-route label names (`EXPLAIN ANALYZE` text or a
/// profile node label).
fn route_name(label: &str) -> Option<&'static str> {
    [
        ("frozen CSR", "frozen_csr"),
        ("fixpoint", "fixpoint"),
        ("NFA", "nfa"),
        ("reference", "reference"),
    ]
    .into_iter()
    .find_map(|(needle, route)| label.contains(needle).then_some(route))
}

/// The answering route of a profile: the label of its pattern node.
fn route_of(m: &PlanMetrics) -> Option<&'static str> {
    if m.label.starts_with("Pattern [") {
        return route_name(&m.label);
    }
    m.children.iter().find_map(route_of)
}

/// Fixpoint iterations anywhere in a profile.
fn fixpoint_iterations(m: &PlanMetrics) -> u64 {
    m.iterations.as_ref().map_or(0, |v| v.len() as u64)
        + m.children.iter().map(fixpoint_iterations).sum::<u64>()
}

/// The first unsigned integer after `"key":` in a JSON text.
pub fn json_u64(text: &str, key: &str) -> Option<u64> {
    let at = text.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = text[at..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The store access counters `METRICS JSON` reports, in metric order.
pub const COUNTERS: [&str; 5] = [
    "index_scan_rows",
    "csr_neighbor_rows",
    "csr_sweep_sources",
    "overlay_reads",
    "dict_decodes",
];

/// Routes `core.route_share.*` reports.
pub const ROUTES: [&str; 4] = ["reference", "nfa", "fixpoint", "frozen_csr"];

/// Per-read observations of the traced loop.
#[derive(Default)]
struct ReadObs {
    wire_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    layer_ms: Vec<f64>,
    parse_us: Vec<f64>,
    lower_us: Vec<f64>,
    pin_us: Vec<f64>,
    render_ms: Vec<f64>,
    eval_ms: BTreeMap<Shape, Vec<f64>>,
    build_view_ms: Vec<f64>,
    operator_ms: Vec<f64>,
    iterations: Vec<f64>,
    rows: Vec<f64>,
    routes: BTreeMap<&'static str, usize>,
}

/// Per-write observations of the traced loop.
#[derive(Default)]
struct WriteObs {
    engine_ms: Vec<f64>,
    layer_ms: Vec<f64>,
    view_relations_ms: Vec<f64>,
    write_batch_ms: Vec<f64>,
    register_relation_ms: Vec<f64>,
    register_view_graph_ms: Vec<f64>,
}

/// The state of one traced run.
struct Traced<'a> {
    tr: Tracer,
    replica: Replica,
    engine: Arc<Engine>,
    session: SessionState,
    client: &'a mut Client,
    oracle: Oracle<'a>,
    tally: Tally,
    reads: ReadObs,
    writes: WriteObs,
    wall_ms: f64,
    served_ms: f64,
}

impl Traced<'_> {
    /// Runs `sql` on the in-process engine (timed) and through the
    /// replica (in spans), alternating which goes first from one
    /// statement to the next so neither always inherits the memory the
    /// other freed. Returns the statement id, the engine's response and
    /// time, and the replica's response and answer.
    fn engine_and_replica(
        &mut self,
        sql: &str,
    ) -> (u32, Vec<String>, f64, Vec<String>, Option<Answer>) {
        let stmt = self.tr.next_statement();
        let engine = |t: &mut Self| {
            let start = Instant::now();
            let resp = t.engine.statement(&mut t.session, sql);
            (resp, start.elapsed().as_secs_f64() * 1e3)
        };
        if stmt.is_multiple_of(2) {
            let (resp, ms) = engine(self);
            let (lines, answer) = self.replica.statement(&mut self.tr, sql);
            (stmt, resp, ms, lines, answer)
        } else {
            let (lines, answer) = self.replica.statement(&mut self.tr, sql);
            let (resp, ms) = engine(self);
            (stmt, resp, ms, lines, answer)
        }
    }

    fn read(&mut self, read: &Read) {
        let sql = read.sql();
        let expected = self.oracle.response(read);
        let start = Instant::now();
        let (wire_ms, ok) = run::checked(self.client, &sql, &expected);
        self.tally.record(ok);
        let (stmt, resp, engine_ms, lines, answer) = self.engine_and_replica(&sql);
        self.tally.record(same_answer(&expected, &resp));
        self.tally.record(same_answer(&expected, &lines));
        let layer_ms = self.tr.layer_ms(stmt);
        if let Some(a) = answer {
            // The probes run on a thread of their own so the memory
            // they free is not charged to the next statement.
            std::thread::scope(|s| {
                s.spawn(|| self.probe(stmt, a))
                    .join()
                    .expect("probe panicked");
            });
        }
        let r = &mut self.reads;
        r.wire_ms.push(wire_ms - engine_ms);
        r.engine_ms.push(engine_ms);
        r.layer_ms.push(layer_ms);
        let named = |n: &str| self.tr.named_ms(stmt, n).unwrap_or(0.0);
        r.parse_us.push(named("parser.parse") * 1e3);
        r.lower_us.push(named("parser.lower") * 1e3);
        r.pin_us.push(named("store.pin") * 1e3);
        r.render_ms.push(named("server.render"));
        r.eval_ms
            .entry(read.shape)
            .or_default()
            .push(named("core.eval"));
        self.wall_ms += start.elapsed().as_secs_f64() * 1e3;
        self.served_ms += wire_ms;
    }

    /// The attribution probes of one read: `build_view` on the same
    /// views, and the profiled evaluation whose route and operator
    /// times it reports. Neither counts toward coverage.
    fn probe(&mut self, stmt: u32, a: Answer) {
        let cfg = self.replica.cfg;
        let staged = a.staged();
        let views = staged.names.clone().map(Query::rel);
        let built = self.tr.span("probe.build_view", || {
            build_view(&views, ViewOp::Bounded(staged.k), &staged.db, cfg).is_ok()
        });
        let profiled = self.tr.span("probe.profiled_eval", || {
            eval_with_snapshot_profiled(&a.query, &staged.db, cfg, &a.snap)
        });
        let route = match &profiled {
            Ok((rel, profile)) => {
                self.tally.record(*rel == a.rel);
                self.reads
                    .operator_ms
                    .push(profile.root.elapsed_ns as f64 / 1e6);
                self.reads
                    .iterations
                    .push(fixpoint_iterations(&profile.root) as f64);
                route_of(&profile.root).unwrap_or("reference")
            }
            Err(_) => {
                self.tally.record(false);
                "reference"
            }
        };
        *self.reads.routes.entry(route).or_default() += 1;
        if built && route != "frozen_csr" {
            let ms = self.tr.named_ms(stmt, "probe.build_view").unwrap_or(0.0);
            self.reads.build_view_ms.push(ms);
        }
        self.reads.rows.push(a.rel.len() as f64);
    }

    /// Runs write `k` on a thread of its own, as the server runs each
    /// connection: the allocator work a write leaves behind (freeing
    /// the replaced views and store state) then stays with the writer
    /// instead of being charged to the next read.
    fn write(&mut self, bank: &Bank, k: usize) {
        std::thread::scope(|s| {
            s.spawn(|| self.write_here(bank, k))
                .join()
                .expect("traced write panicked");
        });
    }

    fn write_here(&mut self, bank: &Bank, k: usize) {
        let sql = bank.write_at(k);
        let expected = run::write_expected(k);
        let start = Instant::now();
        let (stmt, resp, engine_ms, lines, _) = self.engine_and_replica(&sql);
        self.tally.record(resp == expected);
        self.tally.record(lines == expected);
        let w = &mut self.writes;
        w.engine_ms.push(engine_ms);
        w.layer_ms.push(self.tr.layer_ms(stmt));
        let named = |n: &str| self.tr.named_ms(stmt, n).unwrap_or(0.0);
        w.view_relations_ms.push(named("parser.view_relations"));
        w.write_batch_ms.push(named("store.write_batch"));
        w.register_relation_ms
            .push(named("store.register_relation"));
        w.register_view_graph_ms
            .push(named("store.register_view_graph"));
        self.wall_ms += start.elapsed().as_secs_f64() * 1e3;
        self.served_ms += engine_ms;
    }
}

/// Sum of `a` over sum of `b`; 0 when `b` sums to 0.
fn ratio(a: &[f64], b: &[f64]) -> f64 {
    let d: f64 = b.iter().sum();
    if d > 0.0 {
        a.iter().sum::<f64>() / d
    } else {
        0.0
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of `t_engine − Σ layers` per statement, ms.
fn unattributed(engine: &[f64], layers: &[f64]) -> f64 {
    let d: Vec<f64> = engine.iter().zip(layers).map(|(e, l)| e - l).collect();
    median(&d)
}

/// The traced run of `workload` for `seconds` of traced statements.
pub fn traced_run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let bank = workload.graph(seed);
    let lines = bank.setup_lines();
    let (mut served, _) = run::set_up(&lines, 1)?;
    let mut report = Vec::new();
    let threads = run::THREADS;
    let mut tally = run::warm_reads(&mut served.client, workload, &bank, seed);

    // The replica loads the same script the server did.
    let mut tr = Tracer::default();
    let mut replica = Replica {
        cfg: EvalConfig::physical().with_threads(threads),
        ..Replica::default()
    };
    for line in &lines {
        for stmt in split_statements(line) {
            let (resp, _) = replica.statement(&mut tr, stmt.trim());
            if let Some(bad) = resp.iter().find(|l| l.starts_with("!! ")) {
                return Err(format!("replica set-up failed: {bad}"));
            }
        }
    }
    tr.clear();

    // Loopback round trip of a statement that does no work.
    let mut noop = Vec::with_capacity(NOOP_ROUNDTRIPS);
    for _ in 0..NOOP_ROUNDTRIPS {
        let t = Instant::now();
        let resp = served
            .client
            .request("SET PLANNER cost")
            .map_err(|e| format!("noop: {e}"))?;
        noop.push(t.elapsed().as_secs_f64() * 1e6);
        tally.record(resp == ["-- planner set to cost"]);
    }

    // Exact counters: the EXPLAIN ANALYZE route and the METRICS deltas
    // of the first read of each shape.
    let mut oracle = Oracle::new(&bank);
    let mut counter_sums = [0u64; COUNTERS.len()];
    let shapes = workload.shapes();
    for k in 0..shapes.len() {
        let read = workload.read_at(&bank, seed, k);
        let sql = read.sql();
        let explain = served
            .client
            .request(&format!("EXPLAIN ANALYZE {sql}"))
            .map_err(|e| format!("explain: {e}"))?;
        tally.record(!explain.iter().any(|l| l.starts_with("!! ")));
        let request = |c: &mut Client, s: &str| c.request(s).map_err(|e| format!("{s}: {e}"));
        request(&mut served.client, "METRICS RESET")?;
        let expected = oracle.response(&read);
        let (_, ok) = run::checked(&mut served.client, &sql, &expected);
        tally.record(ok);
        let json = request(&mut served.client, "METRICS JSON")?.join("\n");
        let mut deltas = Vec::new();
        for (i, c) in COUNTERS.iter().enumerate() {
            let v = json_u64(&json, c).ok_or_else(|| format!("METRICS JSON lacks {c}"))?;
            counter_sums[i] += v;
            deltas.push(format!("{c}={v}"));
        }
        report.push(format!(
            "shape {}: route {} (EXPLAIN ANALYZE); counters {}",
            read.shape.name(),
            route_name(&explain.join("\n")).unwrap_or("unknown"),
            deltas.join(" ")
        ));
    }

    // The traced loop.
    let engine = Arc::clone(&served.engine);
    let mut t = Traced {
        tr,
        replica,
        engine,
        session: SessionState {
            threads,
            ..SessionState::default()
        },
        client: &mut served.client,
        oracle: Oracle::new(&bank),
        tally,
        reads: ReadObs::default(),
        writes: WriteObs::default(),
        wall_ms: 0.0,
        served_ms: 0.0,
    };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut next_read = shapes.len();
    let mut next_write = 0;
    if workload == Workload::WriteMix {
        while Instant::now() < deadline || next_write < WARM_WRITES + 2 {
            t.write(&bank, next_write);
            next_write += 1;
            t.read(&workload.read_at(&bank, seed, next_read));
            next_read += 1;
        }
    } else {
        while Instant::now() < deadline || next_read == shapes.len() {
            t.read(&workload.read_at(&bank, seed, next_read));
            next_read += 1;
        }
        while next_write < WARM_WRITES + TRACED_WRITES {
            t.write(&bank, next_write);
            next_write += 1;
        }
    }
    let Traced {
        tr,
        mut tally,
        reads,
        writes,
        wall_ms,
        served_ms,
        ..
    } = t;

    let stats = served
        .client
        .request("STATS JSON")
        .map_err(|e| format!("stats: {e}"))?
        .join("\n");
    let stat = |k: &str| {
        json_u64(&stats, k)
            .map(|v| v as f64)
            .ok_or_else(|| format!("STATS JSON lacks {k}"))
    };
    let (bytes_total, overlay_entries, tombstone_rows) = (
        stat("total")?,
        stat("overlay_entries")?,
        stat("tombstone_rows")?,
    );
    let expected = oracle.dump(&run::writer_leftover(&bank, next_write));
    let (_, ok) = run::checked(&mut served.client, &crate::oracle::dump_sql(), &expected);
    tally.record(ok);
    served.shut_down();

    let spans_file = format!("perfbench/out/trace_{}_seed{seed}.jsonl", workload.name());
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::write(&spans_file, tr.to_jsonl()));
    report.push(match written {
        Ok(()) => format!("{} spans written to {spans_file}", tr.spans().len()),
        Err(e) => format!("spans not written ({spans_file}: {e})"),
    });
    report.push(format!(
        "traced statements: {} reads, {} writes; store at end: bytes_total={bytes_total} \
         overlay_entries={overlay_entries} tombstone_rows={tombstone_rows}",
        reads.engine_ms.len(),
        writes.engine_ms.len()
    ));
    for (name, (calls, total, own)) in tr.self_times() {
        report.push(format!(
            "layer {name}: calls={calls} total={total:.3} ms self={own:.3} ms"
        ));
    }

    let n_reads = reads.engine_ms.len().max(1) as f64;
    let per_shape = shapes.len().max(1) as f64;
    let slowdown = if served_ms > 0.0 {
        wall_ms / served_ms
    } else {
        0.0
    };
    let mut named: Vec<(String, f64, &'static str)> = vec![
        ("server.noop_roundtrip_us".into(), median(&noop), "us"),
        ("server.wire_ms".into(), mean(&reads.wire_ms), "ms"),
        ("server.render_ms".into(), median(&reads.render_ms), "ms"),
        ("parser.parse_us".into(), median(&reads.parse_us), "us"),
        ("parser.lower_us".into(), median(&reads.lower_us), "us"),
        (
            "parser.view_relations_ms".into(),
            median(&writes.view_relations_ms),
            "ms",
        ),
        (
            "store.write_batch_ms".into(),
            median(&writes.write_batch_ms),
            "ms",
        ),
        (
            "store.register_relation_ms".into(),
            median(&writes.register_relation_ms),
            "ms",
        ),
        (
            "store.register_view_graph_ms".into(),
            median(&writes.register_view_graph_ms),
            "ms",
        ),
        ("store.pin_us".into(), median(&reads.pin_us), "us"),
    ];
    for (c, sum) in COUNTERS.iter().zip(counter_sums) {
        named.push((format!("store.{c}"), sum as f64 / per_shape, "count"));
    }
    named.push(("store.bytes_total".into(), bytes_total, "bytes"));
    named.push(("store.overlay_entries".into(), overlay_entries, "count"));
    named.push(("store.tombstone_rows".into(), tombstone_rows, "count"));
    for shape in Shape::ALL {
        let v = reads.eval_ms.get(&shape).map_or(0.0, |v| median(v));
        named.push((format!("core.eval_ms.{}", shape.name()), v, "ms"));
    }
    named.push((
        "core.build_view_ms".into(),
        median(&reads.build_view_ms),
        "ms",
    ));
    for route in ROUTES {
        let share = reads.routes.get(route).copied().unwrap_or(0) as f64 / n_reads;
        named.push((format!("core.route_share.{route}"), share, "fraction"));
    }
    named.extend([
        ("exec.operator_ms".into(), median(&reads.operator_ms), "ms"),
        (
            "exec.fixpoint_iterations".into(),
            mean(&reads.iterations),
            "count",
        ),
        ("relational.result_rows".into(), mean(&reads.rows), "count"),
        (
            "trace.coverage.read".into(),
            ratio(&reads.layer_ms, &reads.engine_ms),
            "ratio",
        ),
        (
            "trace.coverage.write".into(),
            ratio(&writes.layer_ms, &writes.engine_ms),
            "ratio",
        ),
        (
            "trace.unattributed_ms.read".into(),
            unattributed(&reads.engine_ms, &reads.layer_ms),
            "ms",
        ),
        (
            "trace.unattributed_ms.write".into(),
            unattributed(&writes.engine_ms, &writes.layer_ms),
            "ms",
        ),
        ("trace.slowdown".into(), slowdown, "ratio"),
    ]);
    let m = named
        .into_iter()
        .map(|(name, value, unit)| Metric::new(name, value, unit))
        .collect();
    Ok(Outcome {
        report,
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.failed == 0,
        metrics: m,
    })
}
