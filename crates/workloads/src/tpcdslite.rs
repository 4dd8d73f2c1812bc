//! TPC-DS-lite: the star/snowflake decision-support workload.
//!
//! Three fact tables (`store_sales`, `catalog_sales`, `web_sales`) over
//! shared dimensions, with only mild skew — a workload where the expert
//! optimizer's estimates are good and the doctor's headroom is small, as in
//! the paper (FOSS WRL 0.87 ≈ Bao 0.86 on TPC-DS).
//!
//! 19 templates carrying the paper's selected template numbers
//! (3, 7, 12, 18, 20, 26, 27, 37, 42, 43, 50, 52, 55, 62, 82, 91, 96, 98,
//! 99), 6 queries each, 5 train / 1 test per template.

use foss_common::Result;

use foss_storage::Distribution as D;

use crate::builder::{template_split, Col, DbBuilder};
use crate::template::{PredSpec, Template, TemplateRel};
use crate::{Workload, WorkloadSpec};

/// The template numbers used in the paper's TPC-DS selection.
pub const TEMPLATE_IDS: [u32; 19] = [
    3, 7, 12, 18, 20, 26, 27, 37, 42, 43, 50, 52, 55, 62, 82, 91, 96, 98, 99,
];

fn schema(spec: &WorkloadSpec) -> DbBuilder {
    let mut b = DbBuilder::new();
    let r = |base: usize| spec.rows(base);
    let dates = r(1500) as u64;
    let items = r(2000) as u64;
    let customers = r(4000) as u64;
    let addresses = r(2000) as u64;
    let demos = r(1000) as u64;
    let stores = r(64).max(16) as u64;
    let hds = r(400) as u64;
    let promos = r(128).max(16) as u64;
    let times = r(800) as u64;
    b.table(
        "date_dim",
        dates as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("year", D::Uniform { lo: 0, hi: 9 }),
            Col::plain("moy", D::Uniform { lo: 1, hi: 12 }),
        ],
    );
    b.table(
        "item",
        items as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("category", D::Zipf { n: 20, s: 0.6 }),
            Col::plain("brand", D::Zipf { n: 100, s: 0.6 }),
        ],
    );
    b.table(
        "customer",
        customers as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("cdemo_id", D::ForeignKeyUniform { target_rows: demos }),
            Col::plain(
                "addr_id",
                D::ForeignKeyUniform {
                    target_rows: addresses,
                },
            ),
        ],
    );
    b.table(
        "customer_address",
        addresses as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("state", D::Zipf { n: 50, s: 0.7 }),
        ],
    );
    b.table(
        "customer_demographics",
        demos as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("dep_count", D::Uniform { lo: 0, hi: 9 }),
        ],
    );
    b.table(
        "store",
        stores as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("county", D::Uniform { lo: 0, hi: 15 }),
        ],
    );
    b.table(
        "household_demographics",
        hds as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("income_band", D::Uniform { lo: 0, hi: 19 }),
        ],
    );
    b.table(
        "promotion",
        promos as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("channel", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b.table(
        "time_dim",
        times as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("hour", D::Uniform { lo: 0, hi: 23 }),
        ],
    );
    // Facts: mild skew only (s ≤ 0.5) — TPC-DS data is far more uniform
    // than IMDb, which is why the expert does well here.
    let fact = || {
        vec![
            Col::indexed(
                "sold_date",
                D::ForeignKeyZipf {
                    target_rows: dates,
                    s: 0.4,
                },
            ),
            Col::indexed(
                "item_id",
                D::ForeignKeyZipf {
                    target_rows: items,
                    s: 0.5,
                },
            ),
            Col::plain(
                "customer_id",
                D::ForeignKeyUniform {
                    target_rows: customers,
                },
            ),
            Col::plain(
                "store_id",
                D::ForeignKeyUniform {
                    target_rows: stores,
                },
            ),
            Col::plain("hdemo_id", D::ForeignKeyUniform { target_rows: hds }),
            Col::plain(
                "promo_id",
                D::ForeignKeyUniform {
                    target_rows: promos,
                },
            ),
            Col::plain("cdemo_id", D::ForeignKeyUniform { target_rows: demos }),
            Col::plain("time_id", D::ForeignKeyUniform { target_rows: times }),
            Col::plain("quantity", D::Uniform { lo: 1, hi: 100 }),
        ]
    };
    b.table("store_sales", r(30_000), fact());
    b.table("catalog_sales", r(15_000), fact());
    b.table("web_sales", r(10_000), fact());
    b
}

/// Build the 19 templates.
pub fn templates() -> Vec<Template> {
    // Fact column indexes: sold_date=0 item=1 customer=2 store=3 hdemo=4
    // promo=5 cdemo=6 time=7 quantity=8.
    let facts = ["store_sales", "catalog_sales", "web_sales"];
    let mut out = Vec::with_capacity(TEMPLATE_IDS.len());
    for (k, &id) in TEMPLATE_IDS.iter().enumerate() {
        let fact = facts[k % 3];
        let mut rels = vec![TemplateRel::new(fact, "f").pred(PredSpec::Range {
            column: 8,
            lo: 1,
            hi: 100,
            min_w: 20,
            max_w: 60,
        })];
        let mut joins = Vec::new();
        // Every template filters by date year.
        let d = rels.len();
        rels.push(TemplateRel::new("date_dim", "d").pred(PredSpec::EqUniform {
            column: 1,
            lo: 0,
            hi: 9,
        }));
        joins.push((0, 0, d, 0));
        // Dimension mix varies by template index.
        if k % 2 == 0 {
            let i = rels.len();
            rels.push(TemplateRel::new("item", "i").pred(PredSpec::EqSkewed {
                column: 1,
                lo: 0,
                hi: 19,
            }));
            joins.push((0, 1, i, 0));
        }
        if k % 3 == 0 {
            let c = rels.len();
            rels.push(TemplateRel::new("customer", "c"));
            joins.push((0, 2, c, 0));
            let ca = rels.len();
            rels.push(
                TemplateRel::new("customer_address", "ca").pred(PredSpec::EqSkewed {
                    column: 1,
                    lo: 0,
                    hi: 30,
                }),
            );
            joins.push((c, 2, ca, 0));
        }
        if k % 4 == 0 {
            let s = rels.len();
            rels.push(TemplateRel::new("store", "s"));
            joins.push((0, 3, s, 0));
        }
        if k % 5 == 0 {
            let hd = rels.len();
            rels.push(
                TemplateRel::new("household_demographics", "hd").pred(PredSpec::EqUniform {
                    column: 1,
                    lo: 0,
                    hi: 19,
                }),
            );
            joins.push((0, 4, hd, 0));
        }
        if k % 6 == 0 {
            let p = rels.len();
            rels.push(TemplateRel::new("promotion", "p"));
            joins.push((0, 5, p, 0));
        }
        if k % 7 == 0 {
            let t = rels.len();
            rels.push(TemplateRel::new("time_dim", "t").pred(PredSpec::Range {
                column: 1,
                lo: 0,
                hi: 23,
                min_w: 4,
                max_w: 12,
            }));
            joins.push((0, 7, t, 0));
        }
        out.push(Template { id, rels, joins });
    }
    out
}

/// Materialise TPC-DS-lite: 6 queries per template, 5/1 split.
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    template_split(
        "tpcdslite",
        "tpcds-queries",
        spec,
        schema(&spec),
        &templates(),
        6,
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nineteen_templates_with_paper_ids() {
        let ts = templates();
        assert_eq!(ts.len(), 19);
        let ids: Vec<u32> = ts.iter().map(|t| t.id).collect();
        assert_eq!(ids, TEMPLATE_IDS.to_vec());
        assert!(ts.iter().all(|t| t.relation_count() >= 2));
    }

    #[test]
    fn star_shape_has_fact_hub() {
        for t in templates() {
            // Relation 0 is the fact; most joins touch it.
            let fact_joins = t.joins.iter().filter(|j| j.0 == 0).count();
            assert!(
                fact_joins + 1 >= t.joins.len(),
                "template {} not star-ish",
                t.id
            );
        }
    }

    #[test]
    fn split_is_five_to_one() {
        let wl = build(WorkloadSpec::tiny(5)).unwrap();
        assert_eq!(wl.train.len(), 95);
        assert_eq!(wl.test.len(), 19);
        for q in wl.all_queries() {
            q.validate(wl.db.schema()).unwrap();
        }
    }
}
