//! The query graph: relations, join edges, predicates.

use foss_catalog::Schema;
use foss_common::hash::FxHasher;
use foss_common::{FossError, QueryId, Result, TableId};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::predicate::Predicate;

/// One occurrence of a base table in a query (JOB reuses tables, so each
/// occurrence gets its own alias and relation index).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relation {
    /// The base table.
    pub table: TableId,
    /// Alias unique within the query (e.g. `mi_idx`).
    pub alias: String,
    /// Conjunctive scan predicates on this relation.
    pub predicates: Vec<Predicate>,
}

/// An equi-join edge `rel[left].columns[left_column] = rel[right].columns[right_column]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JoinEdge {
    /// Index into [`Query::relations`].
    pub left: usize,
    /// Column index within the left relation's table.
    pub left_column: usize,
    /// Index into [`Query::relations`].
    pub right: usize,
    /// Column index within the right relation's table.
    pub right_column: usize,
}

impl JoinEdge {
    /// The edge with endpoints swapped (same join).
    pub fn flipped(self) -> Self {
        Self {
            left: self.right,
            left_column: self.right_column,
            right: self.left,
            right_column: self.left_column,
        }
    }

    /// True when the edge touches relation `rel`.
    pub fn touches(&self, rel: usize) -> bool {
        self.left == rel || self.right == rel
    }
}

impl foss_common::Codec for JoinEdge {
    fn encode(&self, w: &mut foss_common::ByteWriter) {
        w.put_usize(self.left);
        w.put_usize(self.left_column);
        w.put_usize(self.right);
        w.put_usize(self.right_column);
    }
    fn decode(r: &mut foss_common::ByteReader<'_>) -> Result<Self> {
        Ok(Self {
            left: r.get_usize()?,
            left_column: r.get_usize()?,
            right: r.get_usize()?,
            right_column: r.get_usize()?,
        })
    }
}

/// A select-project-join query whose result is its `COUNT(*)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Query {
    /// Stable id within its workload.
    pub id: QueryId,
    /// Template number this query was instantiated from (for reporting).
    pub template: u32,
    /// Base relations.
    pub relations: Vec<Relation>,
    /// Equi-join edges; the join graph must be connected.
    pub joins: Vec<JoinEdge>,
}

impl Query {
    /// The query's identity for serving state: a hash of each relation's
    /// table and predicates (constants included) and the join edges, but not
    /// of the id, the template or the aliases. Lengths are hashed before
    /// their items, so no two layouts feed the hasher the same words.
    pub fn fingerprint(&self) -> u64 {
        let mut h = FxHasher::default();
        self.relations.len().hash(&mut h);
        for rel in &self.relations {
            (rel.table, &rel.predicates).hash(&mut h);
        }
        self.joins.hash(&mut h);
        h.finish()
    }

    /// Number of relations (the paper's `n`).
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }

    /// Join edges incident to relation `rel`.
    pub fn joins_of(&self, rel: usize) -> impl Iterator<Item = &JoinEdge> {
        self.joins.iter().filter(move |e| e.touches(rel))
    }

    /// True when relations `a` and `b` are directly joinable.
    pub fn joinable(&self, a: usize, b: usize) -> bool {
        self.joins
            .iter()
            .any(|e| (e.left == a && e.right == b) || (e.left == b && e.right == a))
    }

    /// All join edges between the relation set `left` and relation `right`.
    pub fn edges_between_set(&self, left: &[usize], right: usize) -> Vec<JoinEdge> {
        self.joins
            .iter()
            .filter_map(|e| {
                if e.right == right && left.contains(&e.left) {
                    Some(*e)
                } else if e.left == right && left.contains(&e.right) {
                    Some(e.flipped())
                } else {
                    None
                }
            })
            .collect()
    }

    /// Validate structure against a schema: column bounds, connectivity.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        if self.relations.is_empty() {
            return Err(FossError::InvalidQuery("query with no relations".into()));
        }
        for rel in &self.relations {
            let ncols = schema.table(rel.table).columns.len();
            for p in &rel.predicates {
                if p.column() >= ncols {
                    return Err(FossError::InvalidQuery(format!(
                        "predicate column {} out of range for {}",
                        p.column(),
                        rel.alias
                    )));
                }
            }
        }
        for e in &self.joins {
            for (r, c) in [(e.left, e.left_column), (e.right, e.right_column)] {
                let rel = self.relations.get(r).ok_or_else(|| {
                    FossError::InvalidQuery(format!("join references relation {r}"))
                })?;
                if c >= schema.table(rel.table).columns.len() {
                    return Err(FossError::InvalidQuery(format!(
                        "join column {c} out of range for {}",
                        rel.alias
                    )));
                }
            }
        }
        if !self.is_connected() {
            return Err(FossError::InvalidQuery("join graph is disconnected".into()));
        }
        Ok(())
    }

    /// True when the join graph is connected (required for left-deep plans
    /// without cross products).
    pub fn is_connected(&self) -> bool {
        let n = self.relations.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(r) = stack.pop() {
            for e in self.joins_of(r) {
                let other = if e.left == r { e.right } else { e.left };
                if !seen[other] {
                    seen[other] = true;
                    stack.push(other);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let aliases: Vec<&str> = self.relations.iter().map(|r| r.alias.as_str()).collect();
        write!(f, "SELECT COUNT(*) FROM {}", aliases.join(", "))?;
        let mut conds: Vec<String> = self
            .joins
            .iter()
            .map(|e| {
                format!(
                    "{}.c{} = {}.c{}",
                    aliases[e.left], e.left_column, aliases[e.right], e.right_column
                )
            })
            .collect();
        for r in &self.relations {
            for p in &r.predicates {
                conds.push(format!("{}.{}", r.alias, p));
            }
        }
        if !conds.is_empty() {
            write!(f, " WHERE {}", conds.join(" AND "))?;
        }
        Ok(())
    }
}

/// Fluent builder used by workload template generators and tests.
#[derive(Debug, Clone)]
pub struct QueryBuilder {
    id: QueryId,
    template: u32,
    relations: Vec<Relation>,
    joins: Vec<JoinEdge>,
}

impl QueryBuilder {
    /// Start a query with the given workload id and template number.
    pub fn new(id: QueryId, template: u32) -> Self {
        Self {
            id,
            template,
            relations: Vec::new(),
            joins: Vec::new(),
        }
    }

    /// Add a relation; returns its index.
    pub fn relation(&mut self, table: TableId, alias: impl Into<String>) -> usize {
        self.relations.push(Relation {
            table,
            alias: alias.into(),
            predicates: Vec::new(),
        });
        self.relations.len() - 1
    }

    /// Add a predicate to relation `rel`.
    pub fn predicate(&mut self, rel: usize, p: Predicate) -> &mut Self {
        self.relations[rel].predicates.push(p);
        self
    }

    /// Add an equi-join edge.
    pub fn join(
        &mut self,
        left: usize,
        left_column: usize,
        right: usize,
        right_column: usize,
    ) -> &mut Self {
        self.joins.push(JoinEdge {
            left,
            left_column,
            right,
            right_column,
        });
        self
    }

    /// Finalise, validating against the schema.
    pub fn build(self, schema: &Schema) -> Result<Query> {
        let q = self.build_unchecked();
        q.validate(schema)?;
        Ok(q)
    }

    /// Finalise without validation (tests for invalid structures).
    pub fn build_unchecked(self) -> Query {
        Query {
            id: self.id,
            template: self.template,
            relations: self.relations,
            joins: self.joins,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use foss_catalog::{ColumnDef, TableDef};

    fn schema3() -> Schema {
        let mut s = Schema::new();
        for name in ["a", "b", "c"] {
            s.add_table(TableDef {
                name: name.into(),
                columns: vec![ColumnDef::indexed("id"), ColumnDef::plain("fk")],
            })
            .unwrap();
        }
        s
    }

    fn chain_query(s: &Schema) -> Query {
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let a = qb.relation(s.table_id("a").unwrap(), "a");
        let b = qb.relation(s.table_id("b").unwrap(), "b");
        let c = qb.relation(s.table_id("c").unwrap(), "c");
        qb.join(a, 0, b, 1).join(b, 0, c, 1);
        qb.predicate(
            a,
            Predicate::Eq {
                column: 1,
                value: 3,
            },
        );
        qb.build(s).unwrap()
    }

    #[test]
    fn builder_produces_connected_query() {
        let s = schema3();
        let q = chain_query(&s);
        assert_eq!(q.relation_count(), 3);
        assert!(q.is_connected());
        assert!(q.joinable(0, 1));
        assert!(!q.joinable(0, 2));
    }

    #[test]
    fn disconnected_graph_rejected() {
        let s = schema3();
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        qb.relation(s.table_id("a").unwrap(), "a");
        qb.relation(s.table_id("b").unwrap(), "b");
        assert!(qb.build(&s).is_err());
    }

    #[test]
    fn bad_join_column_rejected() {
        let s = schema3();
        let mut qb = QueryBuilder::new(QueryId::new(0), 1);
        let a = qb.relation(s.table_id("a").unwrap(), "a");
        let b = qb.relation(s.table_id("b").unwrap(), "b");
        qb.join(a, 0, b, 99);
        assert!(qb.build(&s).is_err());
    }

    #[test]
    fn edges_between_set_flips_orientation() {
        let s = schema3();
        let q = chain_query(&s);
        // Edge (b=1 → c=2) queried from set [2] joining 1: must flip.
        let edges = q.edges_between_set(&[2], 1);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].left, 2);
        assert_eq!(edges[0].right, 1);
    }

    #[test]
    fn display_mentions_aliases_and_predicates() {
        let s = schema3();
        let q = chain_query(&s);
        let text = q.to_string();
        assert!(text.starts_with("SELECT COUNT(*) FROM a, b, c"));
        assert!(text.contains("a.c1 = 3"));
    }

    #[test]
    fn fingerprint_is_content_not_id_template_or_alias() {
        let s = schema3();
        let q = chain_query(&s);
        let mut renamed = q.clone();
        renamed.id = QueryId::new(77);
        renamed.template = 9;
        renamed.relations[0].alias = "x".into();
        assert_eq!(renamed.fingerprint(), q.fingerprint());
        let edits: [fn(&mut Query); 6] = [
            |q| {
                q.relations[0].predicates[0] = Predicate::Eq {
                    column: 1,
                    value: 4,
                }
            },
            |q| {
                q.relations[0].predicates[0] = Predicate::Range {
                    column: 1,
                    lo: 3,
                    hi: 3,
                }
            },
            |q| q.relations[2].table = q.relations[1].table,
            |q| q.joins[1].right_column = 0,
            |q| q.joins.swap(0, 1),
            // The same predicate on the next relation.
            |q| {
                let p = q.relations[0].predicates.remove(0);
                q.relations[1].predicates.push(p);
            },
        ];
        for (i, edit) in edits.into_iter().enumerate() {
            let mut other = q.clone();
            edit(&mut other);
            assert_ne!(other.fingerprint(), q.fingerprint(), "edit {i}");
        }
    }

    #[test]
    fn single_relation_is_connected() {
        let s = schema3();
        let mut qb = QueryBuilder::new(QueryId::new(1), 1);
        qb.relation(s.table_id("a").unwrap(), "a");
        let q = qb.build(&s).unwrap();
        assert!(q.is_connected());
    }
}
