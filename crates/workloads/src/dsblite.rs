//! DSB-lite: TPC-DS's star/snowflake shape with DSB's hostile statistics.
//!
//! DSB (PVLDB'21) extends TPC-DS with correlated attribute pairs and skewed
//! fact foreign keys precisely because uniform, independent data flatters
//! optimizers. This workload reuses the TPC-DS-lite star/snowflake layout
//! but regenerates it with the correlation-planting distributions:
//!
//! * **correlated column pairs** ([`foss_storage::Distribution::Correlated`]):
//!   `(year, moy)` on the date dimension, `(category, brand)` on items,
//!   `(state, country)` on addresses, `(dep_count, income_band)` on
//!   demographics and `(quantity, discount)` inside every fact row — each
//!   template filters *both* halves of at least one pair, so the expert's
//!   per-column selectivity product underestimates badly;
//! * **Zipf-skewed fact foreign keys** (`sold_date` at s = 1.0) and a
//!   **jointly skewed** `item_id` ([`foss_storage::Distribution::ZipfJoint`])
//!   coupled to `sold_date`, so hot dates co-occur with hot items and join
//!   fan-outs compound instead of averaging out.
//!
//! 15 templates, 6 queries each, 5 train / 1 test per template.

use foss_common::Result;

use foss_storage::Distribution as D;

use crate::builder::{template_split, Col, DbBuilder};
use crate::template::{PredSpec, Template, TemplateRel};
use crate::{Workload, WorkloadSpec};

/// The DSB-lite template numbers (TPC-DS-derived ids kept for reporting).
pub const TEMPLATE_IDS: [u32; 15] = [2, 5, 13, 18, 27, 40, 50, 54, 62, 72, 81, 84, 91, 99, 100];

fn schema(spec: &WorkloadSpec) -> DbBuilder {
    let mut b = DbBuilder::new();
    let r = |base: usize| spec.rows(base);
    let dates = r(1500) as u64;
    let items = r(2000) as u64;
    let customers = r(4000) as u64;
    let addresses = r(2000) as u64;
    let demos = r(1000) as u64;
    let stores = r(64).max(16) as u64;
    let promos = r(128).max(16) as u64;
    b.table(
        "date_dim",
        dates as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("year", D::Uniform { lo: 0, hi: 9 }),
            // moy tracks year (seasonal batches land together): filtering
            // both is nearly one filter, not two.
            Col::plain(
                "moy",
                D::Correlated {
                    source: 1,
                    lo: 1,
                    hi: 12,
                    rho: 0.8,
                },
            ),
        ],
    );
    b.table(
        "item",
        items as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("category", D::Zipf { n: 25, s: 0.9 }),
            // Brands nest inside categories — the classic DSB pair.
            Col::plain(
                "brand",
                D::Correlated {
                    source: 1,
                    lo: 0,
                    hi: 99,
                    rho: 0.85,
                },
            ),
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
            Col::plain("state", D::Zipf { n: 50, s: 0.8 }),
            Col::plain(
                "country",
                D::Correlated {
                    source: 1,
                    lo: 0,
                    hi: 49,
                    rho: 0.9,
                },
            ),
        ],
    );
    b.table(
        "customer_demographics",
        demos as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("dep_count", D::Uniform { lo: 0, hi: 9 }),
            Col::plain(
                "income_band",
                D::Correlated {
                    source: 1,
                    lo: 0,
                    hi: 9,
                    rho: 0.75,
                },
            ),
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
        "promotion",
        promos as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("channel", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    // Facts: real skew (s = 1.0+, vs TPC-DS-lite's ≤ 0.5) and a jointly
    // skewed item key coupled to the date key.
    let fact = || {
        vec![
            Col::indexed(
                "sold_date",
                D::ForeignKeyZipf {
                    target_rows: dates,
                    s: 1.0,
                },
            ),
            Col::indexed(
                "item_id",
                D::ZipfJoint {
                    target_rows: items,
                    s: 1.0,
                    source: 0,
                    rho: 0.5,
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
                D::ForeignKeyZipf {
                    target_rows: stores,
                    s: 1.2,
                },
            ),
            Col::plain(
                "promo_id",
                D::ForeignKeyUniform {
                    target_rows: promos,
                },
            ),
            Col::plain("quantity", D::Uniform { lo: 1, hi: 100 }),
            // Bulk orders are discounted: quantity and discount move
            // together inside every fact row.
            Col::plain(
                "discount",
                D::Correlated {
                    source: 5,
                    lo: 0,
                    hi: 99,
                    rho: 0.7,
                },
            ),
        ]
    };
    b.table("store_sales", r(24_000), fact());
    b.table("catalog_sales", r(12_000), fact());
    b.table("web_sales", r(8_000), fact());
    b
}

/// Build the 15 templates. Every template filters both halves of at least
/// one correlated pair, so the expert's independence-assuming selectivity
/// product is wrong on every query.
pub fn templates() -> Vec<Template> {
    // Fact column indexes: sold_date=0 item_id=1 customer_id=2 store_id=3
    // promo_id=4 quantity=5 discount=6.
    let facts = ["store_sales", "catalog_sales", "web_sales"];
    let mut out = Vec::with_capacity(TEMPLATE_IDS.len());
    for (k, &id) in TEMPLATE_IDS.iter().enumerate() {
        let mut rels = vec![TemplateRel::new(facts[k % 3], "f").pred(PredSpec::Range {
            column: 5,
            lo: 1,
            hi: 100,
            min_w: 10,
            max_w: 90,
        })];
        if k % 2 == 1 {
            // (quantity, discount): the intra-fact correlated pair.
            rels[0] = rels[0].clone().pred(PredSpec::Range {
                column: 6,
                lo: 0,
                hi: 99,
                min_w: 10,
                max_w: 90,
            });
        }
        let mut joins = Vec::new();
        // Every template filters the date year; even templates also pin the
        // (correlated) month, odd templates hit the item pair instead.
        let d = rels.len();
        let mut date_rel = TemplateRel::new("date_dim", "d").pred(PredSpec::EqUniform {
            column: 1,
            lo: 0,
            hi: 9,
        });
        if k % 2 == 0 {
            date_rel = date_rel.pred(PredSpec::Range {
                column: 2,
                lo: 1,
                hi: 12,
                min_w: 2,
                max_w: 6,
            });
        }
        rels.push(date_rel);
        joins.push((0, 0, d, 0));
        if k % 2 == 1 {
            // (category, brand): both filtered, and the brand range sits
            // inside the category fold so the predicates overlap heavily.
            let i = rels.len();
            rels.push(
                TemplateRel::new("item", "i")
                    .pred(PredSpec::EqSkewed {
                        column: 1,
                        lo: 0,
                        hi: 24,
                    })
                    .pred(PredSpec::Range {
                        column: 2,
                        lo: 0,
                        hi: 24,
                        min_w: 3,
                        max_w: 10,
                    }),
            );
            joins.push((0, 1, i, 0));
        }
        if k % 3 == 0 {
            // Snowflake arm: customer → address with the (state, country)
            // pair both filtered.
            let c = rels.len();
            rels.push(TemplateRel::new("customer", "c"));
            joins.push((0, 2, c, 0));
            let ca = rels.len();
            rels.push(
                TemplateRel::new("customer_address", "ca")
                    .pred(PredSpec::EqSkewed {
                        column: 1,
                        lo: 0,
                        hi: 49,
                    })
                    .pred(PredSpec::Range {
                        column: 2,
                        lo: 0,
                        hi: 49,
                        min_w: 5,
                        max_w: 15,
                    }),
            );
            joins.push((c, 2, ca, 0));
            if k % 6 == 0 {
                // Deeper snowflake: demographics with (dep_count,
                // income_band) both filtered.
                let cd = rels.len();
                rels.push(
                    TemplateRel::new("customer_demographics", "cd")
                        .pred(PredSpec::EqUniform {
                            column: 1,
                            lo: 0,
                            hi: 9,
                        })
                        .pred(PredSpec::Range {
                            column: 2,
                            lo: 0,
                            hi: 9,
                            min_w: 1,
                            max_w: 4,
                        }),
                );
                joins.push((c, 1, cd, 0));
            }
        }
        if k % 4 == 2 {
            let s = rels.len();
            rels.push(TemplateRel::new("store", "s").pred(PredSpec::EqUniform {
                column: 1,
                lo: 0,
                hi: 15,
            }));
            joins.push((0, 3, s, 0));
        }
        if k % 5 == 3 {
            let p = rels.len();
            rels.push(TemplateRel::new("promotion", "p"));
            joins.push((0, 4, p, 0));
        }
        out.push(Template { id, rels, joins });
    }
    out
}

/// Materialise DSB-lite: 6 queries per template, 5/1 split.
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    template_split(
        "dsblite",
        "dsb-queries",
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
    fn fifteen_templates_with_dsb_ids() {
        let ts = templates();
        assert_eq!(ts.len(), 15);
        assert_eq!(
            ts.iter().map(|t| t.id).collect::<Vec<_>>(),
            TEMPLATE_IDS.to_vec()
        );
        assert!(ts.iter().all(|t| t.relation_count() >= 2));
    }

    #[test]
    fn every_template_hits_a_correlated_pair() {
        // Correlated pairs live on: date_dim (year=1, moy=2), item
        // (category=1, brand=2), customer_address (state=1, country=2),
        // customer_demographics (dep_count=1, income_band=2) and the fact
        // tables (quantity=5, discount=6).
        for t in templates() {
            let hits_pair = t.rels.iter().any(|rel| {
                let cols: Vec<usize> = rel
                    .preds
                    .iter()
                    .map(|p| match *p {
                        PredSpec::EqUniform { column, .. }
                        | PredSpec::EqSkewed { column, .. }
                        | PredSpec::Range { column, .. } => column,
                    })
                    .collect();
                match rel.table.as_str() {
                    "date_dim" => cols.contains(&1) && cols.contains(&2),
                    "item" => cols.contains(&1) && cols.contains(&2),
                    "customer_address" => cols.contains(&1) && cols.contains(&2),
                    "customer_demographics" => cols.contains(&1) && cols.contains(&2),
                    _ => cols.contains(&5) && cols.contains(&6),
                }
            });
            assert!(hits_pair, "template {} misses every correlated pair", t.id);
        }
    }

    #[test]
    fn split_is_five_to_one() {
        let wl = build(WorkloadSpec::tiny(5)).unwrap();
        assert_eq!(wl.train.len(), 75);
        assert_eq!(wl.test.len(), 15);
        for q in wl.all_queries() {
            q.validate(wl.db.schema()).unwrap();
        }
    }

    #[test]
    fn fact_keys_are_skewed_and_coupled() {
        let wl = build(WorkloadSpec::tiny(3)).unwrap();
        let schema = wl.db.schema();
        let ss = wl.db.table(schema.table_id("store_sales").unwrap());
        let dates = ss.column(0).values();
        let items = ss.column(1).values();
        // Skew: the hottest date owns far more than its uniform share.
        let hot = dates.iter().filter(|&&v| v == 0).count();
        assert!(
            hot * 20 > dates.len(),
            "hot date share {hot}/{}",
            dates.len()
        );
        // Coupling: item_id equals the folded date key on ~rho of rows.
        let n = wl.table_rows()[schema.table_id("item").unwrap().index()] as i64;
        let coupled = dates
            .iter()
            .zip(items)
            .filter(|&(&d, &i)| i == d.rem_euclid(n))
            .count();
        assert!(
            coupled as f64 > 0.4 * dates.len() as f64,
            "coupling too weak: {coupled}/{}",
            dates.len()
        );
    }
}
