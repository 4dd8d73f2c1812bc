//! Skew-stress: a small-schema workload engineered to hurt.
//!
//! Where the benchmark-shaped workloads imitate real datasets, this one is a
//! pure stress instrument: every join key is drawn from an *extreme*
//! heavy-tail Zipf (s ≥ 1.5, so the hottest key owns ~40% of each fact
//! table) and every template carries a range predicate whose width is drawn
//! across almost the whole domain, giving per-query selectivities that swing
//! from ≪1% to ~100%. That combination stresses the chunked executor's
//! **hash joins**: one bucket holds nearly half of every build side, so
//! probe costs are dominated by a single chain and join outputs explode or
//! vanish depending on which side of the skew the drawn constants land.
//!
//! 10 templates around a single `hub` table, 8 queries each, 6 train /
//! 2 test per template.

use foss_common::Result;

use foss_storage::Distribution as D;

use crate::builder::{template_split, Col, DbBuilder};
use crate::template::{PredSpec, Template, TemplateRel};
use crate::{Workload, WorkloadSpec};

/// Template numbers (a plain 1..10 run — there is no paper numbering to
/// preserve on a synthetic stress workload).
pub const TEMPLATE_IDS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

fn schema(spec: &WorkloadSpec) -> DbBuilder {
    let mut b = DbBuilder::new();
    let r = |base: usize| spec.rows(base);
    let hubs = r(2500) as u64;
    let parts = r(800) as u64;
    let suppliers = r(200) as u64;
    b.table(
        "hub",
        hubs as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Zipf { n: 64, s: 1.5 }),
        ],
    );
    b.table(
        "part",
        parts as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("cat", D::Zipf { n: 40, s: 1.6 }),
        ],
    );
    b.table(
        "supplier",
        suppliers as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("region", D::Uniform { lo: 0, hi: 7 }),
        ],
    );
    b.table(
        "event",
        r(9000),
        vec![
            Col::indexed(
                "hub_id",
                D::ForeignKeyZipf {
                    target_rows: hubs,
                    s: 1.6,
                },
            ),
            Col::plain(
                "part_id",
                D::ForeignKeyZipf {
                    target_rows: parts,
                    s: 1.5,
                },
            ),
            Col::plain("val", D::Zipf { n: 1000, s: 1.5 }),
        ],
    );
    b.table(
        "log",
        r(7000),
        vec![
            Col::indexed(
                "hub_id",
                D::ForeignKeyZipf {
                    target_rows: hubs,
                    s: 1.8,
                },
            ),
            Col::plain(
                "supp_id",
                D::ForeignKeyZipf {
                    target_rows: suppliers,
                    s: 1.5,
                },
            ),
            Col::plain("metric", D::Uniform { lo: 0, hi: 9999 }),
        ],
    );
    b.table(
        "audit",
        r(5000),
        vec![
            Col::indexed(
                "hub_id",
                D::ForeignKeyZipf {
                    target_rows: hubs,
                    s: 1.5,
                },
            ),
            Col::plain("flag", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b
}

/// Build the 10 templates.
pub fn templates() -> Vec<Template> {
    // event columns: hub_id=0 part_id=1 val=2; log: hub_id=0 supp_id=1
    // metric=2; audit: hub_id=0 flag=1; hub: id=0 grp=1.
    let mut out = Vec::with_capacity(TEMPLATE_IDS.len());
    for (k, &id) in TEMPLATE_IDS.iter().enumerate() {
        // The wide-spread range filter: widths from 1 to nearly the whole
        // domain, so instances of one template differ by orders of
        // magnitude in selectivity.
        let mut rels = vec![TemplateRel::new("event", "e").pred(PredSpec::Range {
            column: 2,
            lo: 0,
            hi: 999,
            min_w: 1,
            max_w: 950,
        })];
        let mut joins = Vec::new();
        let h = rels.len();
        rels.push(TemplateRel::new("hub", "h").pred(PredSpec::EqSkewed {
            column: 1,
            lo: 0,
            hi: 63,
        }));
        joins.push((0, 0, h, 0));
        if k % 2 == 0 {
            // The heavy-tail collision: event and log share hub keys, and
            // both hot heads sit on the same few hubs.
            let l = rels.len();
            rels.push(TemplateRel::new("log", "l").pred(PredSpec::Range {
                column: 2,
                lo: 0,
                hi: 9999,
                min_w: 50,
                max_w: 3000,
            }));
            joins.push((h, 0, l, 0));
            if k % 4 == 0 {
                let s = rels.len();
                rels.push(TemplateRel::new("supplier", "s").pred(PredSpec::EqUniform {
                    column: 1,
                    lo: 0,
                    hi: 7,
                }));
                joins.push((l, 1, s, 0));
            }
        } else {
            let p = rels.len();
            rels.push(TemplateRel::new("part", "p").pred(PredSpec::EqSkewed {
                column: 1,
                lo: 0,
                hi: 39,
            }));
            joins.push((0, 1, p, 0));
        }
        if k % 3 == 0 {
            let a = rels.len();
            rels.push(TemplateRel::new("audit", "a").pred(PredSpec::EqUniform {
                column: 1,
                lo: 0,
                hi: 3,
            }));
            joins.push((h, 0, a, 0));
        }
        if k % 5 == 4 {
            let a2 = rels.len();
            rels.push(TemplateRel::new("audit", "a2"));
            joins.push((h, 0, a2, 0));
        }
        out.push(Template { id, rels, joins });
    }
    out
}

/// Materialise skew-stress: 8 queries per template, 6/2 split.
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    template_split(
        "skewstress",
        "skewstress-queries",
        spec,
        schema(&spec),
        &templates(),
        8,
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_templates() {
        let ts = templates();
        assert_eq!(ts.len(), 10);
        assert!(ts.iter().all(|t| t.relation_count() >= 2));
        assert!(ts.iter().any(|t| t.relation_count() >= 4));
    }

    #[test]
    fn join_keys_are_extremely_heavy_tailed() {
        let wl = build(WorkloadSpec::tiny(1)).unwrap();
        let schema = wl.db.schema();
        for table in ["event", "log", "audit"] {
            let t = wl.db.table(schema.table_id(table).unwrap());
            let keys = t.column(0).values();
            let hot = keys.iter().filter(|&&v| v == 0).count();
            // s ≥ 1.5 concentrates ≳30% of the table on the single hottest
            // key — far beyond anything the benchmark workloads plant.
            assert!(
                hot as f64 > 0.25 * keys.len() as f64,
                "{table}: hottest key owns only {hot}/{}",
                keys.len()
            );
        }
    }

    #[test]
    fn split_is_six_to_two() {
        let wl = build(WorkloadSpec::tiny(2)).unwrap();
        assert_eq!(wl.train.len(), 60);
        assert_eq!(wl.test.len(), 20);
        for q in wl.all_queries() {
            q.validate(wl.db.schema()).unwrap();
        }
    }

    #[test]
    fn selectivity_spread_is_wide() {
        // The val-range widths across instantiated queries must span at
        // least an order of magnitude.
        use foss_query::Predicate;
        let wl = build(WorkloadSpec::tiny(3)).unwrap();
        let mut widths = Vec::new();
        for q in wl.all_queries() {
            for p in &q.relations[0].predicates {
                if let Predicate::Range { lo, hi, .. } = p {
                    widths.push(hi - lo);
                }
            }
        }
        let min = widths.iter().min().copied().unwrap();
        let max = widths.iter().max().copied().unwrap();
        assert!(
            max >= 10 * min.max(1),
            "selectivity spread too narrow: {min}..{max}"
        );
    }
}
