//! The statement dispatcher behind both front doors — the TCP server
//! ([`crate::server`]) and the `sqlpgq_shell` example — over one
//! shared state: a single serialized writer on a [`ConcurrentStore`],
//! and readers pinned to published [`StoreSnapshot`]s
//! (ARCHITECTURE.md §2 step 11).
//!
//! # Statement grammar
//!
//! A script is a sequence of statements separated by `;`
//! ([`split_statements`]; a `;` inside a single-quoted string does not
//! split). [`Engine::statement`] runs one statement and answers with
//! lines: `-- ` for headers and notes, `!! ` for a typed error, and
//! bare lines for result rows. Keywords are case-insensitive.
//!
//! * `CREATE TABLE t (c, …)` and `CREATE PROPERTY GRAPH g (…)` — DDL
//!   through the SQL/PGQ parser. A new graph is staged into the store
//!   at once; a declared table with no rows yet reads as empty.
//! * `SELECT * FROM GRAPH_TABLE (g MATCH … [WHERE …] RETURN (…))` —
//!   a read, answered `-- n row(s)` and then the rows.
//! * `EXPLAIN SELECT …` — the physical plan the read would run
//!   (operator tree, pattern route, `⟨coded⟩` / `⟨delta⟩` /
//!   `⟨dop≤n⟩` markers), without running it.
//! * `EXPLAIN ANALYZE SELECT …` — runs the read with per-operator
//!   metrics and prints the profile tree: rows in/out, wall time,
//!   degree of parallelism, hash-join build sizes, fixpoint iterations
//!   with per-round Δ sizes. The non-timing fields are the same at
//!   every `SET THREADS` value.
//! * `INSERT INTO t VALUES (v, …)` and `DELETE FROM t VALUES (v, …)` —
//!   row mutations (the formal model is read-only; Section 7
//!   "Updates"), parsed by the SQL/PGQ parser. Literals are
//!   integers, `true`/`false` and single-quoted strings (`''` escapes
//!   a quote). `t` must be declared by `CREATE TABLE` and the row must
//!   have one value per declared column; otherwise the statement is a
//!   typed error that changes nothing. Every graph over `t` is
//!   restaged.
//! * `STATS` / `STATS JSON` — the served store's layout (dictionary
//!   residency, overlays, tombstones, resident bytes by component, the
//!   last compaction, per-relation and per-graph sizes) followed by
//!   the planner statistics (per-column distinct counts,
//!   live/tombstoned rows, degree histograms).
//! * `METRICS` / `METRICS JSON` / `METRICS RESET` — the store's
//!   cumulative access counters: IndexScan rows, CSR neighbor and
//!   sweep reads, overlay vs dense adjacency reads, dictionary
//!   decodes, writer probes, and view rebuilds (a pattern read that
//!   had to build its property graph per query — 0 on the served
//!   path).
//! * `COMPACT` — folds overlays, drops tombstones and rebuilds the
//!   dictionary, as a snapshot swap.
//! * `SET THREADS n` — executor workers for this session (`0` is the
//!   `PGQ_THREADS` / machine default). Answers are the same at every
//!   setting.
//! * `SET PLANNER cost|rule` — the statistics-driven cost-based
//!   lowering (the default) or the fixed rule-based rewrite. Answers
//!   are the same under both.
//!
//! # Concurrency
//!
//! * The **base state** (live [`Database`] plus the parser catalog)
//!   sits behind a mutex, held only while lowering a read or applying
//!   DDL or a mutation — never while a query runs.
//! * The **store** holds, per catalog graph `G`, the six canonical view
//!   relations under reserved names (`⟨N:G⟩` … `⟨P:G⟩`) plus the
//!   frozen view graph: its CSR indexes and the validated
//!   `PropertyGraph` they were built from. That graph is the server's
//!   only row-level copy of `G` besides the base rows; every pattern
//!   read matches against it, so no read rebuilds the view. The
//!   single writer maintains them and republishes an immutable
//!   snapshot after every committed batch, paired with the
//!   staged-graph map as one read view. Publication
//!   happens under the base lock, so two writers cannot interleave
//!   their swaps.
//! * Every read — `SELECT`, `EXPLAIN`, `EXPLAIN ANALYZE` — takes one
//!   route: lower under the base lock, release it, pin the read view,
//!   look up the graph, then run plain, explained or profiled against
//!   the pinned snapshot. A graph that failed to stage answers the
//!   error its staging recorded. A concurrent writer or `COMPACT`
//!   never perturbs an in-flight read.

use pgq_core::{eval_with_snapshot, eval_with_snapshot_profiled, EvalConfig, Query};
use pgq_exec::{ExecOptions, PlannerChoice};
use pgq_parser::ast::{CreateGraph, GraphQuery, Mutation};
use pgq_parser::{lower_query, parse_statement, Catalog, Statement};
use pgq_relational::{Database, RelName};
use pgq_store::{
    AccessSnapshot, ConcurrentStore, DegreeHistogram, GraphForm, Store, StoreSnapshot,
    StoreStatistics, StoreStats,
};
use pgq_value::Tuple;
use std::collections::BTreeMap;
use std::convert::Infallible;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// Per-connection session knobs (each TCP connection gets its own).
#[derive(Debug, Default, Clone)]
pub struct SessionState {
    /// `SET THREADS n;` — 0 means the environment default.
    pub threads: usize,
    /// `SET PLANNER {cost|rule};` — cost-based is the default.
    pub planner: PlannerChoice,
}

/// An immutable read configuration: a pinned store snapshot plus every
/// catalog graph — staged under its reserved names ([`staged_names`])
/// with the identifier arity bound its view graph was frozen with, or
/// with the error its staging raised. The rows live only in the store.
/// Swapped atomically as one `Arc` — a reader's snapshot and graph map
/// always agree.
#[derive(Debug)]
struct ReadView {
    snap: StoreSnapshot,
    graphs: BTreeMap<String, Result<usize, String>>,
}

/// The protected base state: live rows plus the parser catalog.
#[derive(Debug, Default)]
struct BaseState {
    db: Database,
    catalog: Catalog,
}

/// What a read does with its staged graph.
#[derive(Debug, Clone, Copy)]
enum ReadKind {
    /// `SELECT …` — the rows.
    Run,
    /// `EXPLAIN SELECT …` — the physical plan.
    Explain,
    /// `EXPLAIN ANALYZE SELECT …` — the profile tree.
    Analyze,
}

/// The shared engine — one per server process, `Arc`-shared across
/// connection threads.
#[derive(Debug)]
pub struct Engine {
    base: Mutex<BaseState>,
    store: ConcurrentStore,
    view: RwLock<Arc<ReadView>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The reserved staged-relation names of catalog graph `g`.
fn staged_names(g: &str) -> [RelName; 6] {
    ["N", "E", "S", "T", "L", "P"].map(|c| RelName::new(format!("⟨{c}:{g}⟩")))
}

/// Response lines for a result or its typed error.
fn reply(result: Result<Vec<String>, String>) -> Vec<String> {
    result.unwrap_or_else(|e| vec![format!("!! {e}")])
}

/// A `-- head` line followed by `text` indented as a block.
fn block(head: &str, text: &str) -> Vec<String> {
    let mut lines = vec![format!("-- {head}")];
    lines.extend(text.lines().map(|l| format!("   {l}")));
    lines
}

impl Engine {
    /// An empty engine: no tables, no graphs, an empty published
    /// snapshot.
    pub fn new() -> Self {
        let store = ConcurrentStore::new(Store::new());
        let snap = store.pin();
        Engine {
            base: Mutex::new(BaseState::default()),
            store,
            view: RwLock::new(Arc::new(ReadView {
                snap,
                graphs: BTreeMap::new(),
            })),
        }
    }

    /// Executes one statement of the module's grammar (no trailing `;`)
    /// and returns the response lines.
    pub fn statement(&self, conn: &mut SessionState, stmt: &str) -> Vec<String> {
        let stmt = stmt.trim();
        if stmt.is_empty() {
            return Vec::new();
        }
        let upper = stmt.to_ascii_uppercase();
        if upper == "STATS" || upper.starts_with("STATS ") {
            return self.stats(stmt["STATS".len()..].trim());
        }
        if upper == "METRICS" || upper.starts_with("METRICS ") {
            return self.metrics(stmt["METRICS".len()..].trim());
        }
        if upper == "COMPACT" {
            return reply(
                self.compact()
                    .map(|effect| vec![format!("-- compacted: {effect}")]),
            );
        }
        if upper.starts_with("SET THREADS") {
            return match stmt["SET THREADS".len()..].trim().parse::<usize>() {
                Ok(n) => {
                    conn.threads = n;
                    let resolved = ExecOptions::with_threads(n).threads;
                    vec![format!(
                        "-- threads set to {n} (executor runs {resolved} worker(s))"
                    )]
                }
                Err(_) => vec!["!! SET THREADS needs a non-negative integer (0 = default)".into()],
            };
        }
        if upper.starts_with("SET PLANNER") {
            return match PlannerChoice::parse(stmt["SET PLANNER".len()..].trim()) {
                Some(p) => {
                    conn.planner = p;
                    vec![format!("-- planner set to {p}")]
                }
                None => vec!["!! SET PLANNER needs cost or rule".into()],
            };
        }
        let (inner, kind) = match strip_keyword(stmt, "EXPLAIN") {
            Some(rest) => match strip_keyword(rest, "ANALYZE") {
                Some(inner) => (inner, ReadKind::Analyze),
                None => (rest, ReadKind::Explain),
            },
            None => (stmt, ReadKind::Run),
        };
        match parse_statement(&format!("{inner};")) {
            Err(e) => vec![format!("!! {e}")],
            Ok(Statement::GraphQuery(gq)) => reply(self.read(conn, &gq, kind)),
            Ok(_) if !matches!(kind, ReadKind::Run) => {
                vec!["!! expected a GRAPH_TABLE query".into()]
            }
            Ok(Statement::CreateTable(ct)) => {
                self.lock_base().catalog.define_table(&ct);
                vec![format!("-- table {} defined", ct.name)]
            }
            Ok(Statement::CreateGraph(cg)) => reply(self.define_graph(&cg)),
            Ok(Statement::Mutation(m)) => {
                reply(self.mutate(m).map(|text| vec![format!("-- {text}")]))
            }
        }
    }

    /// The single read route. Lowers under a brief base lock, then pins
    /// the [`ReadView`] and answers from it alone: the staged graph's
    /// rows, plan or profile, or the error its staging recorded.
    fn read(
        &self,
        conn: &SessionState,
        gq: &GraphQuery,
        kind: ReadKind,
    ) -> Result<Vec<String>, String> {
        let out = {
            let base = self.lock_base();
            let catalog = &base.catalog;
            let out = lower_query(gq, catalog).map_err(|e| e.to_string())?;
            // Rejects a graph the catalog does not know by name.
            catalog.id_arity(&gq.graph).map_err(|e| e.to_string())?;
            out
        };
        let view = self.pin_view();
        let k = match view.graphs.get(&gq.graph) {
            Some(staged) => staged.clone()?,
            None => return Err(format!("graph {} is not staged", gq.graph)),
        };
        let q = Query::pattern_n(k, out, staged_names(&gq.graph).map(Query::rel));
        let cfg = EvalConfig::physical()
            .with_threads(conn.threads)
            .with_planner(conn.planner);
        let err = |e: pgq_core::QueryError| e.to_string();
        // A bare pattern call over views frozen in the store reads only
        // the pinned snapshot — its CSR and retained view graph — so
        // core gets no row copy.
        let no_rows = Database::new();
        Ok(match kind {
            ReadKind::Run => {
                let rows = eval_with_snapshot(&q, &no_rows, cfg, &view.snap).map_err(err)?;
                let mut lines = vec![format!("-- {} row(s)", rows.len())];
                lines.extend(rows.iter().map(|row| row.to_string()));
                lines
            }
            ReadKind::Explain => {
                let opts = ExecOptions::with_threads(conn.threads).with_planner(conn.planner);
                let text = pgq_core::explain_with_exec_opts(
                    &q,
                    &view.snap.schema(),
                    Some(view.snap.as_store()),
                    opts,
                )
                .map_err(err)?;
                block("physical plan", &text)
            }
            ReadKind::Analyze => {
                let (_rel, profile) =
                    eval_with_snapshot_profiled(&q, &no_rows, cfg, &view.snap).map_err(err)?;
                block("query profile", &profile.render(true))
            }
        })
    }

    /// `CREATE PROPERTY GRAPH`: validated against the catalog, then
    /// staged before the base lock drops.
    fn define_graph(&self, cg: &CreateGraph) -> Result<Vec<String>, String> {
        let mut base = self.lock_base();
        base.catalog.define_graph(cg).map_err(|e| e.to_string())?;
        let mut lines = vec![format!("-- property graph {} defined", cg.name)];
        let mut note = String::new();
        self.restage(&base, std::slice::from_ref(&cg.name), &mut note);
        if !note.is_empty() {
            lines.push(format!("-- staging{note}"));
        }
        Ok(lines)
    }

    /// `INSERT INTO t VALUES (…)` / `DELETE FROM t VALUES (…)`:
    /// checks the row against the table's declared columns, mutates the
    /// live database, then re-stages every catalog graph built over the
    /// mutated table through the serialized writer and publishes the
    /// new snapshot. A rejected row changes nothing.
    fn mutate(&self, m: Mutation) -> Result<String, String> {
        let Mutation { delete, table, row } = m;
        let row = Tuple::new(row);
        let mut base = self.lock_base();
        let columns = base
            .catalog
            .table_columns(&table)
            .map_err(|e| e.to_string())?
            .len();
        if row.arity() != columns {
            return Err(format!(
                "table {table} declares {columns} column(s), row has {} value(s)",
                row.arity()
            ));
        }
        let changed = if delete {
            base.db.remove(&table.as_str().into(), &row)
        } else {
            base.db
                .insert(table.clone(), row.clone())
                .map_err(|e| e.to_string())?
        };
        let affected: Vec<String> = base
            .catalog
            .graph_names()
            .filter(|g| {
                base.catalog.graph(g).is_ok_and(|cg| {
                    cg.node_tables.iter().any(|nt| nt.table == table)
                        || cg.edge_tables.iter().any(|et| et.table == table)
                })
            })
            .map(String::from)
            .collect();
        let mut note = String::new();
        self.restage(&base, &affected, &mut note);
        let verb = if delete {
            "deleted from"
        } else {
            "inserted into"
        };
        let effect = if changed { "" } else { " (no-op)" };
        Ok(format!("{verb} {table}{effect}{note}"))
    }

    /// Re-stages the named catalog graphs from the current base state
    /// through one serialized writer batch, then publishes the new
    /// snapshot + graph map as an atomic [`ReadView`] swap. A graph
    /// that fails to stage (its view became invalid) is dropped from
    /// the store; the read view keeps its error, which every read of
    /// it answers, and `note` gets a line.
    ///
    /// Caller holds the base lock, which also serializes publication:
    /// two writers cannot interleave their view swaps.
    fn restage(&self, base: &BaseState, graphs: &[String], note: &mut String) {
        if graphs.is_empty() {
            return;
        }
        let staged: Vec<(String, Result<_, String>)> = graphs
            .iter()
            .map(|g| (g.clone(), stage_graph(&base.catalog, &base.db, g)))
            .collect();
        let installed = self
            .store
            .write(|s| -> Result<Vec<_>, Infallible> {
                Ok(staged
                    .into_iter()
                    .map(|(g, staged)| {
                        let k = staged.and_then(|(k, rows)| {
                            install_graph(s, &g, k, rows).map_err(|e| e.to_string())?;
                            Ok(k)
                        });
                        if k.is_err() {
                            s.drop_graph(&g);
                        }
                        (g, k)
                    })
                    .collect())
            })
            .unwrap_or_else(|e| match e {});
        let mut map = self.pin_view().graphs.clone();
        for (g, k) in installed {
            if let Err(e) = &k {
                note.push_str(&format!("; graph {g} unstaged: {e}"));
            }
            map.insert(g, k);
        }
        self.publish(map);
    }

    /// Swaps in a new [`ReadView`] pairing the latest published
    /// snapshot with `graphs`. Callers hold the base lock.
    fn publish(&self, graphs: BTreeMap<String, Result<usize, String>>) {
        let snap = self.store.pin();
        *self.view.write().unwrap_or_else(PoisonError::into_inner) =
            Arc::new(ReadView { snap, graphs });
    }

    fn pin_view(&self) -> Arc<ReadView> {
        self.view
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    fn lock_base(&self) -> std::sync::MutexGuard<'_, BaseState> {
        // A connection thread that panicked mid-statement cannot have
        // left a half-applied store batch behind (the writer publishes
        // only committed clones), so the base lock is recoverable.
        self.base.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn stats(&self, arg: &str) -> Vec<String> {
        if !arg.is_empty() && !arg.eq_ignore_ascii_case("JSON") {
            return vec!["!! STATS takes no argument or JSON".into()];
        }
        let view = self.pin_view();
        let stats = view.snap.stats();
        // Planner statistics off the pinned snapshot: a snapshot's
        // statistics cache is frozen with it, so repeated STATS calls
        // against one published view recompute nothing.
        let statistics = view.snap.as_store().statistics();
        if arg.is_empty() {
            let mut lines = block("store layout", &stats.to_string());
            lines.extend(block("planner statistics", &statistics.to_string()));
            lines
        } else {
            stats_json(&stats, &statistics)
                .lines()
                .map(String::from)
                .collect()
        }
    }

    fn metrics(&self, arg: &str) -> Vec<String> {
        let view = self.pin_view();
        let counters = view.snap.counters();
        if arg.eq_ignore_ascii_case("RESET") {
            counters.reset();
            vec!["-- store access counters reset".into()]
        } else if arg.eq_ignore_ascii_case("JSON") {
            metrics_json(&counters.snapshot())
                .lines()
                .map(String::from)
                .collect()
        } else if arg.is_empty() {
            let text = counters.snapshot().to_string();
            let (head, body) = text.split_once('\n').unwrap_or((&text, ""));
            block(head, body)
        } else {
            vec!["!! METRICS takes no argument, JSON, or RESET".into()]
        }
    }

    /// `COMPACT;` as a snapshot swap: the writer rebuilds dictionary
    /// and indexes, and the read view re-pins before the base lock
    /// drops — a writer queued on that lock publishes after, never
    /// under, the pre-compaction graph map. Readers on the old
    /// snapshot keep decoding through their pinned dictionary.
    fn compact(&self) -> Result<pgq_store::CompactionStats, String> {
        let _base = self.lock_base();
        let stats = self.store.compact().map_err(|e| e.to_string())?;
        self.publish(self.pin_view().graphs.clone());
        Ok(stats)
    }
}

/// Derives catalog graph `g`'s identifier arity bound and six view
/// relations from the live base state, the latter as a database under
/// the graph's reserved names.
fn stage_graph(catalog: &Catalog, db: &Database, g: &str) -> Result<(usize, Database), String> {
    let rels = catalog.view_relations(g, db).map_err(|e| e.to_string())?;
    let k = catalog.id_arity(g).map_err(|e| e.to_string())?;
    let mut sdb = Database::new();
    for (name, rel) in staged_names(g).into_iter().zip([
        rels.nodes,
        rels.edges,
        rels.src,
        rels.tgt,
        rels.labels,
        rels.props,
    ]) {
        sdb.add_relation(name, rel);
    }
    Ok((k, sdb))
}

/// Registers a staged graph's six relations and frozen view graph into
/// the writer's working store, consuming the staged rows: afterwards
/// the store holds the only copy (its columns and the validated view
/// graph the entry retains).
fn install_graph(
    s: &mut Store,
    g: &str,
    k: usize,
    rows: Database,
) -> Result<(), pgq_store::StoreError> {
    // Drop the previous freeze first: `register_relation` re-freezes
    // any view graph backed by the relation, and doing that after only
    // some of the six views have been replaced validates a torn view
    // (new edges against the old src/tgt) — spuriously unstaging the
    // graph. The consistent freeze is rebuilt from `rows` below.
    s.drop_graph(g);
    for (name, rel) in rows.iter() {
        s.register_relation(name.clone(), rel)?;
    }
    s.register_view_graph(g, staged_names(g), &rows, GraphForm::Bounded(k))
}

/// Strips a leading case-insensitive whole-word keyword, returning the
/// trimmed remainder (`EXPLAINED …` does not start with `EXPLAIN`).
fn strip_keyword<'a>(s: &'a str, kw: &str) -> Option<&'a str> {
    let rest = s
        .get(..kw.len())
        .filter(|head| head.eq_ignore_ascii_case(kw))
        .map(|_| &s[kw.len()..])?;
    rest.starts_with(char::is_whitespace)
        .then(|| rest.trim_start())
}

/// Splits a script on `;` while respecting single-quoted strings —
/// the statement splitter of the shell and the line protocol.
pub fn split_statements(script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in script.chars() {
        match c {
            '\'' => {
                in_string = !in_string;
                current.push(c);
            }
            ';' if !in_string => {
                out.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    if !current.trim().is_empty() {
        out.push(current);
    }
    out
}

/// `METRICS JSON;` through the hand-rolled writer.
fn metrics_json(snap: &AccessSnapshot) -> String {
    let mut w = pgq_exec::JsonWriter::pretty();
    w.begin_object();
    w.key("index_scan_rows");
    w.number(snap.index_scan_rows);
    w.key("csr_neighbor_rows");
    w.number(snap.csr_neighbor_rows);
    w.key("csr_sweep_sources");
    w.number(snap.csr_sweep_sources);
    w.key("overlay_reads");
    w.number(snap.overlay_reads);
    w.key("dense_reads");
    w.number(snap.dense_reads);
    w.key("dict_decodes");
    w.number(snap.dict_decodes);
    w.key("writer_probes");
    w.number(snap.writer_probes);
    w.key("writer_probe_rows");
    w.number(snap.writer_probe_rows);
    w.key("view_rebuilds");
    w.number(snap.view_rebuilds);
    w.end_object();
    w.finish()
}

/// One direction of a degree histogram as a JSON object.
fn histogram_json(w: &mut pgq_exec::JsonWriter, key: &str, h: &DegreeHistogram) {
    w.key(key);
    w.begin_object();
    w.key("nodes");
    w.number(h.nodes as u64);
    w.key("edges");
    w.number(h.edges as u64);
    w.key("min");
    w.number(h.min as u64);
    w.key("mean");
    w.float(h.mean);
    w.key("p99");
    w.number(h.p99 as u64);
    w.key("max");
    w.number(h.max as u64);
    w.end_object();
}

/// `STATS JSON;` — the storage-layout report plus the planner
/// statistics as JSON.
fn stats_json(stats: &StoreStats, statistics: &StoreStatistics) -> String {
    let mut w = pgq_exec::JsonWriter::pretty();
    w.begin_object();
    w.key("dictionary_total");
    w.number(stats.dictionary_total as u64);
    w.key("dictionary_live");
    w.number(stats.dictionary_live as u64);
    w.key("dictionary_stale");
    w.number(stats.dictionary_stale() as u64);
    w.key("overlay_entries");
    w.number(stats.overlay_entries() as u64);
    w.key("tombstone_rows");
    w.number(stats.tombstone_rows() as u64);
    w.key("bytes");
    w.begin_object();
    w.key("dictionary");
    w.number(stats.bytes.dictionary as u64);
    w.key("columns");
    w.number(stats.bytes.columns as u64);
    w.key("csr");
    w.number(stats.bytes.csr as u64);
    w.key("overlays");
    w.number(stats.bytes.overlays as u64);
    w.key("total");
    w.number(stats.bytes.total() as u64);
    w.end_object();
    w.key("relations");
    w.number(stats.relations.len() as u64);
    w.key("graphs");
    w.number(stats.graphs.len() as u64);
    w.key("statistics");
    w.begin_object();
    w.key("epoch");
    w.number(statistics.epoch);
    w.key("dictionary_codes");
    w.number(statistics.dictionary_codes as u64);
    w.key("relations");
    w.begin_array();
    for (name, r) in &statistics.relations {
        w.begin_object();
        w.key("name");
        w.string(&name.to_string());
        w.key("live_rows");
        w.number(r.live_rows as u64);
        w.key("tombstone_rows");
        w.number(r.tombstone_rows as u64);
        w.key("distinct");
        w.begin_array();
        for d in &r.distinct {
            w.number(*d as u64);
        }
        w.end_array();
        w.end_object();
    }
    w.end_array();
    w.key("graphs");
    w.begin_array();
    for (name, g) in &statistics.graphs {
        w.begin_object();
        w.key("name");
        w.string(name);
        histogram_json(&mut w, "forward", &g.adjacency.forward);
        histogram_json(&mut w, "reverse", &g.adjacency.reverse);
        w.key("overlay");
        w.number(g.adjacency.overlay as u64);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    w.end_object();
    w.finish()
}
