//! JOB-lite: the IMDb-shaped workload (21 tables, 33 templates, 113 queries).
//!
//! Matches the Join Order Benchmark's structural recipe:
//!
//! * a `title` hub with many-to-many satellite facts (`cast_info`,
//!   `movie_info`, `movie_keyword`, `movie_companies`, …) and small
//!   dimension tables,
//! * Zipf-skewed foreign keys (a few blockbuster titles own most cast and
//!   info rows) so join fan-outs are wildly non-uniform,
//! * skew-correlated predicates (hot constants are queried more often),
//!
//! which together defeat per-column histograms + independence — the expert's
//! plans on JOB-lite leave real room for the plan doctor, as Table I of the
//! paper shows for real JOB (FOSS WRL 0.16).

use foss_common::Result;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use foss_storage::Distribution as D;

use crate::builder::{workload, Col, DbBuilder};
use crate::template::{PredSpec, Template, TemplateRel};
use crate::{Workload, WorkloadSpec};

/// Number of individual queries, matching JOB.
pub const QUERY_COUNT: usize = 113;
/// Test-split size, matching Balsa's random partition of JOB.
pub const TEST_COUNT: usize = 19;

fn schema(spec: &WorkloadSpec) -> DbBuilder {
    let mut b = DbBuilder::new();
    let r = |base: usize| spec.rows(base);
    // Dimension tables.
    b.table(
        "kind_type",
        r(8).min(8),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("kind", D::Uniform { lo: 0, hi: 7 }),
        ],
    );
    b.table(
        "company_type",
        r(8).min(8),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("kind", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b.table(
        "info_type",
        r(110),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Uniform { lo: 0, hi: 10 }),
        ],
    );
    b.table(
        "link_type",
        r(18).min(18),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Uniform { lo: 0, hi: 5 }),
        ],
    );
    b.table(
        "role_type",
        r(12).min(12),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b.table(
        "comp_cast_type",
        r(8).min(4),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("kind", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b.table(
        "keyword",
        r(3000),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Zipf { n: 200, s: 1.1 }),
        ],
    );
    b.table(
        "company_name",
        r(2000),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("country", D::Zipf { n: 60, s: 1.2 }),
        ],
    );
    b.table(
        "name",
        r(8000),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("gender", D::Uniform { lo: 0, hi: 2 }),
            Col::plain("grp", D::Zipf { n: 500, s: 1.0 }),
        ],
    );
    b.table(
        "char_name",
        r(4000),
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Zipf { n: 300, s: 1.0 }),
        ],
    );
    // The hub.
    let titles = r(8000) as u64;
    b.table(
        "title",
        titles as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain(
                "kind_id",
                D::ForeignKeyZipf {
                    target_rows: 8,
                    s: 0.9,
                },
            ),
            Col::plain("production_year", D::Zipf { n: 140, s: 0.6 }), // 0 = recent
            Col::plain("grp", D::Zipf { n: 400, s: 1.0 }),
        ],
    );
    let names = r(8000) as u64;
    let keywords = r(3000) as u64;
    let companies = r(2000) as u64;
    let info_types = r(110) as u64;
    // Satellite facts (movie_id indexed to admit index nested loops).
    b.table(
        "movie_companies",
        r(12_000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 1.05,
                },
            ),
            Col::plain(
                "company_id",
                D::ForeignKeyZipf {
                    target_rows: companies,
                    s: 1.1,
                },
            ),
            Col::plain("company_type_id", D::ForeignKeyUniform { target_rows: 4 }),
        ],
    );
    b.table(
        "movie_info",
        r(16_000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 1.0,
                },
            ),
            Col::plain(
                "info_type_id",
                D::ForeignKeyZipf {
                    target_rows: info_types,
                    s: 1.2,
                },
            ),
            Col::plain("val", D::Zipf { n: 1000, s: 1.1 }),
        ],
    );
    b.table(
        "movie_info_idx",
        r(6000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 0.9,
                },
            ),
            Col::plain(
                "info_type_id",
                D::ForeignKeyZipf {
                    target_rows: info_types,
                    s: 1.0,
                },
            ),
            Col::plain("val", D::Zipf { n: 100, s: 0.8 }),
        ],
    );
    b.table(
        "movie_keyword",
        r(12_000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 1.1,
                },
            ),
            Col::plain(
                "keyword_id",
                D::ForeignKeyZipf {
                    target_rows: keywords,
                    s: 1.1,
                },
            ),
        ],
    );
    b.table(
        "cast_info",
        r(25_000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 1.1,
                },
            ),
            Col::indexed(
                "person_id",
                D::ForeignKeyZipf {
                    target_rows: names,
                    s: 1.05,
                },
            ),
            Col::plain("role_id", D::ForeignKeyUniform { target_rows: 12 }),
        ],
    );
    b.table(
        "complete_cast",
        r(1500),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 0.8,
                },
            ),
            Col::plain("subject_id", D::ForeignKeyUniform { target_rows: 4 }),
        ],
    );
    b.table(
        "movie_link",
        r(1500),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 0.9,
                },
            ),
            Col::plain(
                "linked_movie_id",
                D::ForeignKeyUniform {
                    target_rows: titles,
                },
            ),
            Col::plain("link_type_id", D::ForeignKeyUniform { target_rows: 18 }),
        ],
    );
    b.table(
        "person_info",
        r(8000),
        vec![
            Col::indexed(
                "person_id",
                D::ForeignKeyZipf {
                    target_rows: names,
                    s: 1.1,
                },
            ),
            Col::plain(
                "info_type_id",
                D::ForeignKeyUniform {
                    target_rows: info_types,
                },
            ),
        ],
    );
    b.table(
        "aka_name",
        r(3000),
        vec![
            Col::indexed(
                "person_id",
                D::ForeignKeyZipf {
                    target_rows: names,
                    s: 1.0,
                },
            ),
            Col::plain("grp", D::Uniform { lo: 0, hi: 50 }),
        ],
    );
    b.table(
        "aka_title",
        r(2000),
        vec![
            Col::indexed(
                "movie_id",
                D::ForeignKeyZipf {
                    target_rows: titles,
                    s: 0.9,
                },
            ),
            Col::plain("grp", D::Uniform { lo: 0, hi: 50 }),
        ],
    );
    // FK graph (for documentation / tooling).
    b.fk("movie_companies", "movie_id", "title", "id");
    b.fk("movie_companies", "company_id", "company_name", "id");
    b.fk("movie_info", "movie_id", "title", "id");
    b.fk("movie_keyword", "movie_id", "title", "id");
    b.fk("movie_keyword", "keyword_id", "keyword", "id");
    b.fk("cast_info", "movie_id", "title", "id");
    b.fk("cast_info", "person_id", "name", "id");
    b
}

/// The 33 JOB-lite templates.
///
/// Each template mirrors a JOB family: `title` joined with a combination of
/// satellite facts and their dimensions, with skew-correlated predicates.
/// Relation counts range from 3 to 10 (real JOB: 3–16, mean 8).
pub fn templates() -> Vec<Template> {
    // Building blocks. Each block lists (rels, joins-to-title, preds).
    // Columns: see `schema` — title: id=0 kind_id=1 year=2 grp=3.
    let mut out = Vec::new();
    // Block combos per template (indexes into BLOCKS below) + extra preds.
    const MC: usize = 0; // movie_companies + company_name
    const MCT: usize = 1; // movie_companies + company_name + company_type
    const MI: usize = 2; // movie_info + info_type
    const MIDX: usize = 3; // movie_info_idx + info_type
    const MK: usize = 4; // movie_keyword + keyword
    const CI: usize = 5; // cast_info + name
    const CIR: usize = 6; // cast_info + name + role_type
    const CC: usize = 7; // complete_cast + comp_cast_type
    const ML: usize = 8; // movie_link + link_type
    const AT: usize = 9; // aka_title
    const PI: usize = 10; // person_info (requires CI/CIR)
    const AN: usize = 11; // aka_name (requires CI/CIR)
    const KT: usize = 12; // kind_type dimension on title

    // The 33 combos (template families follow JOB's 1a..33c progression:
    // small chains first, wide stars later).
    let combos: Vec<Vec<usize>> = vec![
        vec![MC],                // 1: t, mc, cn
        vec![MI],                // 2
        vec![MK],                // 3
        vec![MIDX],              // 4
        vec![CI],                // 5
        vec![MC, KT],            // 6
        vec![MI, KT],            // 7
        vec![MK, MI],            // 8
        vec![CI, MK],            // 9
        vec![MC, MI],            // 10
        vec![MCT],               // 11
        vec![CIR],               // 12
        vec![MIDX, MI],          // 13
        vec![MC, MK],            // 14
        vec![CI, MC],            // 15
        vec![CI, MI],            // 16
        vec![CC],                // 17
        vec![ML],                // 18
        vec![AT, MI],            // 19
        vec![CI, PI],            // 20
        vec![CI, AN],            // 21
        vec![MCT, MI],           // 22
        vec![MK, MIDX],          // 23
        vec![CIR, MK],           // 24
        vec![MC, MI, MK],        // 25
        vec![CI, MC, MI],        // 26
        vec![CIR, MC, KT],       // 27
        vec![CC, MK, MI],        // 28
        vec![ML, MK],            // 29
        vec![CI, MI, MIDX],      // 30
        vec![CIR, PI, MK],       // 31
        vec![MCT, MIDX, MK, KT], // 32
        vec![CIR, MC, MI, MK],   // 33
    ];

    for (ti, combo) in combos.iter().enumerate() {
        let id = ti as u32 + 1;
        let mut rels: Vec<TemplateRel> =
            vec![TemplateRel::new("title", "t").pred(PredSpec::EqSkewed {
                column: 2,
                lo: 0,
                hi: 60,
            })];
        let mut joins: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut ci_name_rel: Option<usize> = None;
        for &block in combo {
            match block {
                MC | MCT => {
                    let mc = rels.len();
                    rels.push(TemplateRel::new("movie_companies", "mc"));
                    joins.push((0, 0, mc, 0)); // t.id = mc.movie_id
                    let cn = rels.len();
                    rels.push(
                        TemplateRel::new("company_name", "cn").pred(PredSpec::EqSkewed {
                            column: 1,
                            lo: 0,
                            hi: 30,
                        }),
                    );
                    joins.push((mc, 1, cn, 0)); // mc.company_id = cn.id
                    if block == MCT {
                        let ct = rels.len();
                        rels.push(TemplateRel::new("company_type", "ct"));
                        joins.push((mc, 2, ct, 0));
                    }
                }
                MI => {
                    let mi = rels.len();
                    rels.push(
                        TemplateRel::new("movie_info", "mi").pred(PredSpec::EqSkewed {
                            column: 2,
                            lo: 0,
                            hi: 200,
                        }),
                    );
                    joins.push((0, 0, mi, 0));
                    let it = rels.len();
                    rels.push(TemplateRel::new("info_type", "it"));
                    joins.push((mi, 1, it, 0));
                }
                MIDX => {
                    let mi = rels.len();
                    rels.push(TemplateRel::new("movie_info_idx", "mi_idx").pred(
                        PredSpec::EqSkewed {
                            column: 2,
                            lo: 0,
                            hi: 40,
                        },
                    ));
                    joins.push((0, 0, mi, 0));
                    let it = rels.len();
                    rels.push(TemplateRel::new("info_type", "it2"));
                    joins.push((mi, 1, it, 0));
                }
                MK => {
                    let mk = rels.len();
                    rels.push(TemplateRel::new("movie_keyword", "mk"));
                    joins.push((0, 0, mk, 0));
                    let k = rels.len();
                    rels.push(TemplateRel::new("keyword", "k").pred(PredSpec::EqSkewed {
                        column: 1,
                        lo: 0,
                        hi: 100,
                    }));
                    joins.push((mk, 1, k, 0));
                }
                CI | CIR => {
                    let ci = rels.len();
                    rels.push(TemplateRel::new("cast_info", "ci"));
                    joins.push((0, 0, ci, 0));
                    let n = rels.len();
                    rels.push(TemplateRel::new("name", "n").pred(PredSpec::EqUniform {
                        column: 1,
                        lo: 0,
                        hi: 2,
                    }));
                    joins.push((ci, 1, n, 0));
                    ci_name_rel = Some(n);
                    if block == CIR {
                        let rt = rels.len();
                        rels.push(TemplateRel::new("role_type", "rt"));
                        joins.push((ci, 2, rt, 0));
                    }
                }
                CC => {
                    let cc = rels.len();
                    rels.push(TemplateRel::new("complete_cast", "cc"));
                    joins.push((0, 0, cc, 0));
                    let cct = rels.len();
                    rels.push(TemplateRel::new("comp_cast_type", "cct"));
                    joins.push((cc, 1, cct, 0));
                }
                ML => {
                    let ml = rels.len();
                    rels.push(TemplateRel::new("movie_link", "ml"));
                    joins.push((0, 0, ml, 0));
                    let lt = rels.len();
                    rels.push(TemplateRel::new("link_type", "lt"));
                    joins.push((ml, 2, lt, 0));
                }
                AT => {
                    let at = rels.len();
                    rels.push(
                        TemplateRel::new("aka_title", "at").pred(PredSpec::EqUniform {
                            column: 1,
                            lo: 0,
                            hi: 25,
                        }),
                    );
                    joins.push((0, 0, at, 0));
                }
                PI => {
                    let n = ci_name_rel.expect("PI requires a CI block first");
                    let pi = rels.len();
                    rels.push(TemplateRel::new("person_info", "pi"));
                    joins.push((n, 0, pi, 0));
                }
                AN => {
                    let n = ci_name_rel.expect("AN requires a CI block first");
                    let an = rels.len();
                    rels.push(
                        TemplateRel::new("aka_name", "an").pred(PredSpec::EqUniform {
                            column: 1,
                            lo: 0,
                            hi: 25,
                        }),
                    );
                    joins.push((n, 0, an, 0));
                }
                KT => {
                    let kt = rels.len();
                    rels.push(TemplateRel::new("kind_type", "kt"));
                    joins.push((0, 1, kt, 0));
                }
                _ => unreachable!(),
            }
        }
        out.push(Template { id, rels, joins });
    }
    out
}

/// Materialise JOB-lite.
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    let (schema, db, optimizer) = schema(&spec).build(spec.seed)?;
    let stream = foss_common::SeedStream::new(spec.seed);
    let mut rng = StdRng::seed_from_u64(stream.derive("joblite-queries"));
    let templates = templates();
    // JOB has 113 queries over 33 templates (1–6 variants each); we draw
    // 3–4 per template to land exactly on 113.
    let mut queries = Vec::with_capacity(QUERY_COUNT);
    let mut qid = 0usize;
    'outer: loop {
        for t in &templates {
            queries.push(t.instantiate(&schema, foss_common::QueryId::new(qid), &mut rng)?);
            qid += 1;
            if queries.len() == QUERY_COUNT {
                break 'outer;
            }
        }
    }
    // Balsa's random partition: shuffle, 19 held out.
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut split_rng = StdRng::seed_from_u64(stream.derive("joblite-split"));
    order.shuffle(&mut split_rng);
    let test_idx: std::collections::HashSet<usize> = order[..TEST_COUNT].iter().copied().collect();
    let mut train = Vec::with_capacity(QUERY_COUNT - TEST_COUNT);
    let mut test = Vec::with_capacity(TEST_COUNT);
    for (i, q) in queries.into_iter().enumerate() {
        if test_idx.contains(&i) {
            test.push(q);
        } else {
            train.push(q);
        }
    }
    Ok(workload("joblite", db, optimizer, train, test))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_33_templates_with_job_like_sizes() {
        let ts = templates();
        assert_eq!(ts.len(), 33);
        let sizes: Vec<usize> = ts.iter().map(Template::relation_count).collect();
        assert_eq!(*sizes.iter().min().unwrap(), 3);
        assert!(*sizes.iter().max().unwrap() >= 9);
        let mean: f64 = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(mean >= 4.0, "mean template size {mean}");
    }

    #[test]
    fn builds_21_tables() {
        let wl = build(WorkloadSpec::tiny(1)).unwrap();
        assert_eq!(wl.table_count(), 21);
        assert_eq!(wl.name, "joblite");
    }

    #[test]
    fn skew_exists_in_cast_info_fanout() {
        let wl = build(WorkloadSpec::tiny(1)).unwrap();
        let schema = wl.db.schema();
        let ci = wl.db.table(schema.table_id("cast_info").unwrap());
        let col = ci.column(0); // movie_id
        let hot = col.values().iter().filter(|&&v| v == 0).count();
        let rows = col.len();
        // Title 0 should own far more than its uniform share.
        assert!(hot * 20 > rows / 100, "hot={hot} rows={rows}");
    }

    #[test]
    fn queries_validate_against_schema() {
        let wl = build(WorkloadSpec::tiny(4)).unwrap();
        for q in wl.all_queries() {
            q.validate(wl.db.schema()).unwrap();
        }
    }
}
