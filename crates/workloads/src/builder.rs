//! Internal helpers shared by the five workload definitions: declare tables
//! once and get schema + generated data + database + expert optimizer, then
//! draw the queries and assemble the [`Workload`].

use std::sync::Arc;

use foss_catalog::stats::DEFAULT_BUCKETS;
use foss_catalog::{ColumnDef, ForeignKey, Schema, TableDef};
use foss_common::{QueryId, Result};
use foss_executor::Database;
use foss_optimizer::{CardinalityEstimator, CostModel, TraditionalOptimizer};
use foss_query::Query;
use foss_storage::{ColumnSpec, Distribution, TableGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::template::Template;
use crate::{Workload, WorkloadSpec};

/// One declared column: schema definition + data distribution.
pub(crate) struct Col {
    pub def: ColumnDef,
    pub dist: Distribution,
}

impl Col {
    pub fn indexed(name: &str, dist: Distribution) -> Self {
        Self {
            def: ColumnDef::indexed(name),
            dist,
        }
    }

    pub fn plain(name: &str, dist: Distribution) -> Self {
        Self {
            def: ColumnDef::plain(name),
            dist,
        }
    }
}

/// Declarative database builder.
pub(crate) struct DbBuilder {
    tables: Vec<(String, usize, Vec<Col>)>,
    fks: Vec<(String, String, String, String)>,
}

impl DbBuilder {
    pub fn new() -> Self {
        Self {
            tables: Vec::new(),
            fks: Vec::new(),
        }
    }

    /// Declare a table.
    pub fn table(&mut self, name: &str, rows: usize, cols: Vec<Col>) -> &mut Self {
        self.tables.push((name.to_string(), rows, cols));
        self
    }

    /// Declare a foreign key (by names) — recorded in the schema's join
    /// graph for documentation; templates join explicitly by column index.
    pub fn fk(&mut self, from: &str, from_col: &str, to: &str, to_col: &str) -> &mut Self {
        self.fks.push((
            from.to_string(),
            from_col.to_string(),
            to.to_string(),
            to_col.to_string(),
        ));
        self
    }

    /// Generate data and assemble the database + optimizer.
    pub fn build(
        self,
        seed: u64,
    ) -> Result<(Arc<Schema>, Arc<Database>, Arc<TraditionalOptimizer>)> {
        let mut schema = Schema::new();
        for (name, _, cols) in &self.tables {
            schema.add_table(TableDef {
                name: name.clone(),
                columns: cols.iter().map(|c| c.def.clone()).collect(),
            })?;
        }
        for (from, from_col, to, to_col) in &self.fks {
            let ft = schema.table_id(from)?;
            let tt = schema.table_id(to)?;
            let fc = schema
                .table(ft)
                .column_index(from_col)
                .ok_or_else(|| foss_common::FossError::UnknownName(from_col.clone()))?;
            let tc = schema
                .table(tt)
                .column_index(to_col)
                .ok_or_else(|| foss_common::FossError::UnknownName(to_col.clone()))?;
            schema.add_foreign_key(ForeignKey {
                from_table: ft,
                from_column: fc,
                to_table: tt,
                to_column: tc,
            })?;
        }
        let schema = Arc::new(schema);
        let gen = TableGenerator::new(seed);
        let mut tables = Vec::with_capacity(self.tables.len());
        for (name, rows, cols) in &self.tables {
            let specs: Vec<ColumnSpec> = cols
                .iter()
                .map(|c| ColumnSpec::new(c.def.name.clone(), c.dist.clone()))
                .collect();
            tables.push(gen.generate(name, *rows, &specs)?);
        }
        let db = Arc::new(Database::new(schema.clone(), tables, DEFAULT_BUCKETS)?);
        let optimizer = Arc::new(TraditionalOptimizer::new(
            schema.clone(),
            CardinalityEstimator::new(db.stats_vec()),
            CostModel::default(),
        ));
        Ok((schema, db, optimizer))
    }
}

/// Assemble a workload from its splits; `max_relations` is the largest
/// relation count over both.
pub(crate) fn workload(
    name: &str,
    db: Arc<Database>,
    optimizer: Arc<TraditionalOptimizer>,
    train: Vec<Query>,
    test: Vec<Query>,
) -> Workload {
    let max_relations = train
        .iter()
        .chain(&test)
        .map(|q| q.relation_count())
        .max()
        .unwrap_or(2);
    Workload {
        name: name.into(),
        db,
        optimizer,
        train,
        test,
        max_relations,
    }
}

/// A template-split workload: `per_template` instances of every template,
/// drawn from the RNG stream `rng_label` with sequential query ids, the last
/// `held_out` instances of each template held out for test.
pub(crate) fn template_split(
    name: &str,
    rng_label: &str,
    spec: WorkloadSpec,
    db: DbBuilder,
    templates: &[Template],
    per_template: usize,
    held_out: usize,
) -> Result<Workload> {
    let (schema, db, optimizer) = db.build(spec.seed)?;
    let stream = foss_common::SeedStream::new(spec.seed);
    let mut rng = StdRng::seed_from_u64(stream.derive(rng_label));
    let (mut train, mut test) = (Vec::new(), Vec::new());
    let mut qid = 0usize;
    for t in templates {
        for k in 0..per_template {
            let q = t.instantiate(&schema, QueryId::new(qid), &mut rng)?;
            qid += 1;
            if k < per_template - held_out {
                train.push(q);
            } else {
                test.push(q);
            }
        }
    }
    Ok(workload(name, db, optimizer, train, test))
}
