//! The catalog: registered base tables and property graph definitions,
//! plus the normalization of vertex/edge tables into the six canonical
//! relations `(R1, …, R6)` of Definition 3.1 — the translation the paper
//! sketches in Section 7(1).
//!
//! ## Identifier scheme
//!
//! The standard keys rows by the declared `KEY` columns; keys from
//! different tables may collide, and node/edge keys may have different
//! lengths while Definition 5.1 requires one identifier arity. We
//! therefore use composite identifiers
//! `(table_name, key_1, …, key_j, 0, …, 0)` of uniform arity
//! `k = 1 + max key length`: the table-name component makes identifiers
//! from different tables (and node vs edge sorts) disjoint, and constant
//! padding keeps the map injective. This is exactly the spirit of
//! Example 5.1's composite identifiers, and is recorded in DESIGN.md.

use crate::ast::{CreateGraph, CreateTable};
use pgq_graph::{pg_view_exact, PropertyGraph, ViewMode, ViewRelations};
use pgq_relational::{Database, Relation};
use pgq_value::{Tuple, Value};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Catalog errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatalogError {
    /// Unknown base table.
    UnknownTable(String),
    /// Unknown graph.
    UnknownGraph(String),
    /// A referenced column does not exist in its table.
    UnknownColumn {
        /// The table.
        table: String,
        /// The missing column.
        column: String,
    },
    /// An edge table references a node table not declared in the graph.
    UnknownReference {
        /// The edge table.
        edge_table: String,
        /// The dangling reference.
        referenced: String,
    },
    /// Source/target key length differs from the referenced node key.
    KeyLengthMismatch {
        /// The edge table.
        edge_table: String,
        /// Length of the edge-side key.
        found: usize,
        /// Length of the referenced node key.
        expected: usize,
    },
    /// The stored relation's arity differs from the declared column list.
    TableArity {
        /// The table.
        table: String,
        /// Declared column count.
        declared: usize,
        /// Stored arity.
        stored: usize,
    },
    /// A column name resolves to different things in different tables.
    AmbiguousColumn(String),
    /// A column name resolves to nothing.
    UnresolvedColumn(String),
    /// View construction failed (Definition 3.1 conditions).
    View(String),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatalogError::UnknownTable(t) => write!(f, "unknown table {t}"),
            CatalogError::UnknownGraph(g) => write!(f, "unknown property graph {g}"),
            CatalogError::UnknownColumn { table, column } => {
                write!(f, "table {table} has no column {column}")
            }
            CatalogError::UnknownReference {
                edge_table,
                referenced,
            } => write!(
                f,
                "edge table {edge_table} references {referenced}, which is not a node table of this graph"
            ),
            CatalogError::KeyLengthMismatch {
                edge_table,
                found,
                expected,
            } => write!(
                f,
                "edge table {edge_table}: endpoint key has {found} column(s), referenced key has {expected}"
            ),
            CatalogError::TableArity {
                table,
                declared,
                stored,
            } => write!(
                f,
                "table {table} declares {declared} column(s) but stores arity {stored}"
            ),
            CatalogError::AmbiguousColumn(c) => write!(f, "column {c} is ambiguous"),
            CatalogError::UnresolvedColumn(c) => {
                write!(f, "column {c} is neither a key column nor a property")
            }
            CatalogError::View(e) => write!(f, "graph view construction failed: {e}"),
        }
    }
}

impl std::error::Error for CatalogError {}

/// How a `x.col` reference resolves against a graph's element tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnResolution {
    /// A key column: component `index` of the composite identifier
    /// (offset by 1 for the table-name prefix).
    Component(usize),
    /// A property key.
    Property,
}

/// Registered tables and graphs.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Vec<String>>,
    graphs: BTreeMap<String, CreateGraph>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Registers a base table's column names.
    pub fn define_table(&mut self, ct: &CreateTable) {
        self.tables.insert(ct.name.clone(), ct.columns.clone());
    }

    /// Column names of a registered table.
    pub fn table_columns(&self, name: &str) -> Result<&[String], CatalogError> {
        self.tables
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| CatalogError::UnknownTable(name.to_string()))
    }

    /// Registers a property graph definition after validating every
    /// table, column, and reference it mentions.
    pub fn define_graph(&mut self, cg: &CreateGraph) -> Result<(), CatalogError> {
        let col_positions = |table: &str, cols: &[String]| -> Result<(), CatalogError> {
            let columns = self.table_columns(table)?;
            for c in cols {
                if !columns.contains(c) {
                    return Err(CatalogError::UnknownColumn {
                        table: table.to_string(),
                        column: c.clone(),
                    });
                }
            }
            Ok(())
        };
        for nt in &cg.node_tables {
            col_positions(&nt.table, &nt.key)?;
            col_positions(&nt.table, &nt.properties)?;
        }
        for et in &cg.edge_tables {
            col_positions(&et.table, &et.key)?;
            col_positions(&et.table, &et.source_key)?;
            col_positions(&et.table, &et.target_key)?;
            col_positions(&et.table, &et.properties)?;
            for (reference, key) in [
                (&et.source_ref, &et.source_key),
                (&et.target_ref, &et.target_key),
            ] {
                let node = cg
                    .node_tables
                    .iter()
                    .find(|nt| &nt.table == reference)
                    .ok_or_else(|| CatalogError::UnknownReference {
                        edge_table: et.table.clone(),
                        referenced: reference.clone(),
                    })?;
                if node.key.len() != key.len() {
                    return Err(CatalogError::KeyLengthMismatch {
                        edge_table: et.table.clone(),
                        found: key.len(),
                        expected: node.key.len(),
                    });
                }
            }
        }
        self.graphs.insert(cg.name.clone(), cg.clone());
        Ok(())
    }

    /// A registered graph definition.
    pub fn graph(&self, name: &str) -> Result<&CreateGraph, CatalogError> {
        self.graphs
            .get(name)
            .ok_or_else(|| CatalogError::UnknownGraph(name.to_string()))
    }

    /// The uniform identifier arity of a graph:
    /// `1 + max key length` (module docs).
    pub fn id_arity(&self, graph: &str) -> Result<usize, CatalogError> {
        let cg = self.graph(graph)?;
        let max_key = cg
            .node_tables
            .iter()
            .map(|nt| nt.key.len())
            .chain(cg.edge_tables.iter().map(|et| et.key.len()))
            .max()
            .unwrap_or(0);
        Ok(1 + max_key)
    }

    /// Names of every registered property graph, in name order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> + '_ {
        self.graphs.keys().map(String::as_str)
    }

    /// Materializes the six canonical relations of a graph from the base
    /// tables stored in `db`. A table the catalog declares but `db`
    /// holds no rows for yet reads as the empty relation of its
    /// declared arity, so a graph can be defined before its data.
    pub fn view_relations(
        &self,
        graph: &str,
        db: &Database,
    ) -> Result<ViewRelations, CatalogError> {
        let cg = self.graph(graph)?;
        let k = self.id_arity(graph)?;
        let mut nodes = Relation::empty(k);
        let mut edges = Relation::empty(k);
        let mut src = Relation::empty(2 * k);
        let mut tgt = Relation::empty(2 * k);
        let mut labels = Relation::empty(k + 1);
        let mut props = Relation::empty(k + 2);

        let base = |table: &str| -> Result<(Cow<'_, Relation>, Vec<String>), CatalogError> {
            let columns = self.table_columns(table)?.to_vec();
            let Some(rel) = db.get(&table.into()) else {
                return Ok((Cow::Owned(Relation::empty(columns.len())), columns));
            };
            if rel.arity() != columns.len() {
                return Err(CatalogError::TableArity {
                    table: table.to_string(),
                    declared: columns.len(),
                    stored: rel.arity(),
                });
            }
            Ok((Cow::Borrowed(rel), columns))
        };
        // Graphs are validated against the tables at definition time,
        // but a table can be *redefined* afterwards with different
        // columns — materialization must then surface a typed error,
        // not panic on the stale definition.
        let positions = |table: &str,
                         columns: &[String],
                         cols: &[String]|
         -> Result<Vec<usize>, CatalogError> {
            cols.iter()
                .map(|c| {
                    columns
                        .iter()
                        .position(|x| x == c)
                        .ok_or_else(|| CatalogError::UnknownColumn {
                            table: table.to_string(),
                            column: c.clone(),
                        })
                })
                .collect()
        };
        let make_id = |table: &str, row: &Tuple, key_pos: &[usize]| -> Tuple {
            let mut vals = Vec::with_capacity(k);
            vals.push(Value::str(table));
            for &p in key_pos {
                vals.push(row[p].clone());
            }
            while vals.len() < k {
                vals.push(Value::int(0));
            }
            Tuple::new(vals)
        };
        let ins = |rel: &mut Relation, t: Tuple| {
            rel.insert(t).expect("arity fixed by construction");
        };

        for nt in &cg.node_tables {
            let (rel, columns) = base(&nt.table)?;
            let key_pos = positions(&nt.table, &columns, &nt.key)?;
            let prop_pos = positions(&nt.table, &columns, &nt.properties)?;
            for row in rel.iter() {
                let id = make_id(&nt.table, row, &key_pos);
                for label in &nt.labels {
                    ins(&mut labels, id.concat(&Tuple::unary(Value::str(label))));
                }
                for (&p, name) in prop_pos.iter().zip(&nt.properties) {
                    ins(
                        &mut props,
                        id.concat(&Tuple::new(vec![Value::str(name), row[p].clone()])),
                    );
                }
                ins(&mut nodes, id);
            }
        }
        for et in &cg.edge_tables {
            let (rel, columns) = base(&et.table)?;
            let key_pos = positions(&et.table, &columns, &et.key)?;
            let src_pos = positions(&et.table, &columns, &et.source_key)?;
            let tgt_pos = positions(&et.table, &columns, &et.target_key)?;
            let prop_pos = positions(&et.table, &columns, &et.properties)?;
            for row in rel.iter() {
                let id = make_id(&et.table, row, &key_pos);
                let s = make_id(&et.source_ref, row, &src_pos);
                let t = make_id(&et.target_ref, row, &tgt_pos);
                ins(&mut src, id.concat(&s));
                ins(&mut tgt, id.concat(&t));
                for label in &et.labels {
                    ins(&mut labels, id.concat(&Tuple::unary(Value::str(label))));
                }
                for (&p, name) in prop_pos.iter().zip(&et.properties) {
                    ins(
                        &mut props,
                        id.concat(&Tuple::new(vec![Value::str(name), row[p].clone()])),
                    );
                }
                ins(&mut edges, id);
            }
        }
        Ok(ViewRelations::new(nodes, edges, src, tgt, labels, props))
    }

    /// Builds the property graph (the `pgView` application). Strict mode
    /// surfaces dangling references (an edge whose endpoint key matches
    /// no node row) as typed errors; lenient mode drops such edges.
    pub fn build_graph(
        &self,
        graph: &str,
        db: &Database,
        mode: ViewMode,
    ) -> Result<PropertyGraph, CatalogError> {
        let rels = self.view_relations(graph, db)?;
        let k = self.id_arity(graph)?;
        pg_view_exact(k, &rels, mode).map_err(|e| CatalogError::View(e.to_string()))
    }

    /// Resolves a bare column name against every element table of the
    /// graph: a key column resolves to an identifier component, a
    /// property name to a property lookup. Conflicting resolutions are
    /// ambiguous.
    pub fn resolve_column(
        &self,
        graph: &str,
        column: &str,
    ) -> Result<ColumnResolution, CatalogError> {
        let cg = self.graph(graph)?;
        let mut found: Option<ColumnResolution> = None;
        let mut record = |r: ColumnResolution| -> Result<(), CatalogError> {
            match found {
                None => {
                    found = Some(r);
                    Ok(())
                }
                Some(existing) if existing == r => Ok(()),
                Some(_) => Err(CatalogError::AmbiguousColumn(column.to_string())),
            }
        };
        for (keys, properties) in cg
            .node_tables
            .iter()
            .map(|nt| (&nt.key, &nt.properties))
            .chain(cg.edge_tables.iter().map(|et| (&et.key, &et.properties)))
        {
            if let Some(i) = keys.iter().position(|c| c == column) {
                record(ColumnResolution::Component(1 + i))?;
            }
            if properties.iter().any(|p| p == column) {
                record(ColumnResolution::Property)?;
            }
        }
        found.ok_or_else(|| CatalogError::UnresolvedColumn(column.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::{parse_script, parse_statement};
    use pgq_value::tuple;

    fn setup() -> (Catalog, Database) {
        let mut cat = Catalog::new();
        let script = r"
            CREATE TABLE Account (iban);
            CREATE TABLE Transfer (t_id, src_iban, tgt_iban, ts, amount);
            CREATE PROPERTY GRAPH Transfers (
              NODES TABLE Account KEY (iban) LABEL Account,
              EDGES TABLE Transfer KEY (t_id)
                SOURCE KEY src_iban REFERENCES Account
                TARGET KEY tgt_iban REFERENCES Account
                LABELS Transfer PROPERTIES (ts, amount));
        ";
        for stmt in parse_script(script).unwrap() {
            match stmt {
                Statement::CreateTable(ct) => cat.define_table(&ct),
                Statement::CreateGraph(cg) => cat.define_graph(&cg).unwrap(),
                _ => panic!(),
            }
        }
        let mut db = Database::new();
        db.insert("Account", tuple!["IL1"]).unwrap();
        db.insert("Account", tuple!["IL2"]).unwrap();
        db.insert("Account", tuple!["IL3"]).unwrap();
        db.insert("Transfer", tuple![1, "IL1", "IL2", 10, 500])
            .unwrap();
        db.insert("Transfer", tuple![2, "IL2", "IL3", 11, 250])
            .unwrap();
        (cat, db)
    }

    #[test]
    fn id_arity_is_one_plus_max_key() {
        let (cat, _) = setup();
        assert_eq!(cat.id_arity("Transfers").unwrap(), 2);
    }

    #[test]
    fn builds_example_1_1_graph() {
        let (cat, db) = setup();
        let g = cat.build_graph("Transfers", &db, ViewMode::Strict).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        let t1 = Tuple::new(vec![Value::str("Transfer"), Value::int(1)]);
        assert_eq!(
            g.src(&t1),
            Some(&Tuple::new(vec![Value::str("Account"), Value::str("IL1")]))
        );
        assert!(g.has_label(&t1, &Value::str("Transfer")));
        assert_eq!(g.prop(&t1, &Value::str("amount")), Some(&Value::int(500)));
        let a = Tuple::new(vec![Value::str("Account"), Value::str("IL1")]);
        assert!(g.has_label(&a, &Value::str("Account")));
    }

    #[test]
    fn dangling_reference_strict_vs_lenient() {
        let (cat, mut db) = setup();
        db.insert("Transfer", tuple![3, "IL1", "GHOST", 12, 1])
            .unwrap();
        assert!(matches!(
            cat.build_graph("Transfers", &db, ViewMode::Strict),
            Err(CatalogError::View(_))
        ));
        let g = cat
            .build_graph("Transfers", &db, ViewMode::Lenient)
            .unwrap();
        assert_eq!(g.edge_count(), 2); // ghost edge dropped
    }

    #[test]
    fn validation_errors() {
        let mut cat = Catalog::new();
        cat.define_table(&CreateTable {
            name: "A".into(),
            columns: vec!["k".into()],
        });
        // Unknown table in graph definition.
        let Statement::CreateGraph(bad) =
            parse_statement("CREATE PROPERTY GRAPH G (NODES TABLE Missing KEY (k))").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownTable(_))
        ));
        // Unknown column.
        let Statement::CreateGraph(bad) =
            parse_statement("CREATE PROPERTY GRAPH G (NODES TABLE A KEY (nope))").unwrap()
        else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownColumn { .. })
        ));
        // Dangling REFERENCES.
        cat.define_table(&CreateTable {
            name: "E".into(),
            columns: vec!["id".into(), "s".into(), "t".into()],
        });
        let Statement::CreateGraph(bad) = parse_statement(
            "CREATE PROPERTY GRAPH G (
               NODES TABLE A KEY (k),
               EDGES TABLE E KEY (id) SOURCE KEY s REFERENCES Zed
                 TARGET KEY t REFERENCES A)",
        )
        .unwrap() else {
            panic!()
        };
        assert!(matches!(
            cat.define_graph(&bad),
            Err(CatalogError::UnknownReference { .. })
        ));
    }

    #[test]
    fn table_arity_checked_at_materialization() {
        let (cat, mut db) = setup();
        db.add_relation("Account", Relation::empty(3));
        assert!(matches!(
            cat.view_relations("Transfers", &db),
            Err(CatalogError::TableArity { .. })
        ));
    }

    /// Redefining a table after a graph was validated against it must
    /// surface a typed `UnknownColumn` at materialization — the PR 5
    /// fix for the `expect("validated")` panic.
    #[test]
    fn redefined_table_errors_instead_of_panicking() {
        let (mut cat, mut db) = setup();
        // `Transfer` loses the columns the graph's edge table keys on.
        cat.define_table(&CreateTable {
            name: "Transfer".into(),
            columns: vec!["t_id".into(), "note".into()],
        });
        db.add_relation("Transfer", Relation::empty(2));
        let err = cat.view_relations("Transfers", &db).unwrap_err();
        assert!(
            matches!(
                &err,
                CatalogError::UnknownColumn { table, column }
                    if table == "Transfer" && column == "src_iban"
            ),
            "{err}"
        );
        assert!(matches!(
            cat.build_graph("Transfers", &db, ViewMode::Strict),
            Err(CatalogError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn column_resolution() {
        let (cat, _) = setup();
        assert_eq!(
            cat.resolve_column("Transfers", "iban").unwrap(),
            ColumnResolution::Component(1)
        );
        assert_eq!(
            cat.resolve_column("Transfers", "amount").unwrap(),
            ColumnResolution::Property
        );
        assert!(matches!(
            cat.resolve_column("Transfers", "nope"),
            Err(CatalogError::UnresolvedColumn(_))
        ));
        // t_id is the Transfer key: component 1 as well (no conflict,
        // same resolution shape as iban).
        assert_eq!(
            cat.resolve_column("Transfers", "t_id").unwrap(),
            ColumnResolution::Component(1)
        );
    }

    #[test]
    fn declared_table_without_rows_reads_as_empty() {
        let (cat, _) = setup();
        // Neither table has a relation in `db` yet: the graph is empty,
        // not an `UnknownTable` error.
        let rels = cat.view_relations("Transfers", &Database::new()).unwrap();
        assert!(rels.nodes.is_empty() && rels.edges.is_empty());
        assert_eq!(rels.src.arity(), 4);
        let g = cat
            .build_graph("Transfers", &Database::new(), ViewMode::Strict)
            .unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
        // Nodes present, edge table still missing: nodes only.
        let mut db = Database::new();
        db.insert("Account", tuple!["IL1"]).unwrap();
        let g = cat.build_graph("Transfers", &db, ViewMode::Strict).unwrap();
        assert_eq!((g.node_count(), g.edge_count()), (1, 0));
    }

    #[test]
    fn unknown_graph() {
        let (cat, db) = setup();
        assert!(matches!(
            cat.build_graph("Nope", &db, ViewMode::Strict),
            Err(CatalogError::UnknownGraph(_))
        ));
    }
}
