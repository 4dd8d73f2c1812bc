//! Stack-lite: the StackExchange-shaped workload.
//!
//! Mirrors the Stack benchmark introduced by Bao: a few huge activity tables
//! (`answer`, `comment`, `tag_question`) hanging off `question` and
//! `so_user`, with extreme long-tail skew — a handful of questions and power
//! users own most of the activity. 12 templates (the paper keeps template
//! numbers 1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16), 10 queries each,
//! 8 train / 2 test per template.

use foss_common::Result;

use foss_storage::Distribution as D;

use crate::builder::{template_split, Col, DbBuilder};
use crate::template::{PredSpec, Template, TemplateRel};
use crate::{Workload, WorkloadSpec};

/// The template numbers retained in the paper's Stack selection.
pub const TEMPLATE_IDS: [u32; 12] = [1, 4, 5, 6, 7, 8, 11, 12, 13, 14, 15, 16];

fn schema(spec: &WorkloadSpec) -> DbBuilder {
    let mut b = DbBuilder::new();
    let r = |base: usize| spec.rows(base);
    let sites = r(64).max(16) as u64;
    let users = r(6000) as u64;
    let questions = r(12_000) as u64;
    let tags = r(500) as u64;
    b.table(
        "site",
        sites as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain("grp", D::Uniform { lo: 0, hi: 7 }),
        ],
    );
    b.table(
        "so_user",
        users as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain(
                "site_id",
                D::ForeignKeyZipf {
                    target_rows: sites,
                    s: 1.2,
                },
            ),
            Col::plain("reputation", D::Zipf { n: 1000, s: 1.3 }),
        ],
    );
    b.table(
        "question",
        questions as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain(
                "site_id",
                D::ForeignKeyZipf {
                    target_rows: sites,
                    s: 1.2,
                },
            ),
            Col::indexed(
                "owner_id",
                D::ForeignKeyZipf {
                    target_rows: users,
                    s: 1.2,
                },
            ),
            Col::plain("score", D::Zipf { n: 200, s: 1.1 }),
        ],
    );
    b.table(
        "tag",
        tags as usize,
        vec![
            Col::indexed("id", D::SequentialId),
            Col::plain(
                "site_id",
                D::ForeignKeyZipf {
                    target_rows: sites,
                    s: 1.0,
                },
            ),
        ],
    );
    b.table(
        "answer",
        r(20_000),
        vec![
            Col::indexed(
                "question_id",
                D::ForeignKeyZipf {
                    target_rows: questions,
                    s: 1.15,
                },
            ),
            Col::indexed(
                "owner_id",
                D::ForeignKeyZipf {
                    target_rows: users,
                    s: 1.25,
                },
            ),
            Col::plain("score", D::Zipf { n: 100, s: 1.0 }),
        ],
    );
    b.table(
        "tag_question",
        r(18_000),
        vec![
            Col::indexed(
                "tag_id",
                D::ForeignKeyZipf {
                    target_rows: tags,
                    s: 1.2,
                },
            ),
            Col::indexed(
                "question_id",
                D::ForeignKeyZipf {
                    target_rows: questions,
                    s: 1.1,
                },
            ),
        ],
    );
    b.table(
        "badge",
        r(8000),
        vec![
            Col::indexed(
                "user_id",
                D::ForeignKeyZipf {
                    target_rows: users,
                    s: 1.2,
                },
            ),
            Col::plain("grp", D::Zipf { n: 50, s: 0.9 }),
        ],
    );
    b.table(
        "comment",
        r(15_000),
        vec![
            Col::indexed(
                "post_id",
                D::ForeignKeyZipf {
                    target_rows: questions,
                    s: 1.2,
                },
            ),
            Col::plain(
                "user_id",
                D::ForeignKeyZipf {
                    target_rows: users,
                    s: 1.2,
                },
            ),
        ],
    );
    b.table(
        "post_link",
        r(3000),
        vec![
            Col::indexed(
                "question_from",
                D::ForeignKeyZipf {
                    target_rows: questions,
                    s: 1.0,
                },
            ),
            Col::plain(
                "question_to",
                D::ForeignKeyUniform {
                    target_rows: questions,
                },
            ),
        ],
    );
    b.table(
        "vote",
        r(10_000),
        vec![
            Col::indexed(
                "question_id",
                D::ForeignKeyZipf {
                    target_rows: questions,
                    s: 1.25,
                },
            ),
            Col::plain("vote_type", D::Uniform { lo: 0, hi: 3 }),
        ],
    );
    b
}

/// Build the 12 templates.
pub fn templates() -> Vec<Template> {
    // question columns: id=0 site_id=1 owner_id=2 score=3
    // so_user columns: id=0 site_id=1 reputation=2
    let mut out = Vec::with_capacity(TEMPLATE_IDS.len());
    for (k, &id) in TEMPLATE_IDS.iter().enumerate() {
        let mut rels = vec![TemplateRel::new("question", "q").pred(PredSpec::EqSkewed {
            column: 3,
            lo: 0,
            hi: 50,
        })];
        let mut joins = Vec::new();
        // Every template joins answers (the workhorse join in Stack).
        let a = rels.len();
        rels.push(TemplateRel::new("answer", "a").pred(PredSpec::EqSkewed {
            column: 2,
            lo: 0,
            hi: 20,
        }));
        joins.push((0, 0, a, 0));
        if k % 2 == 0 {
            let u = rels.len();
            rels.push(TemplateRel::new("so_user", "u").pred(PredSpec::EqSkewed {
                column: 2,
                lo: 0,
                hi: 100,
            }));
            joins.push((0, 2, u, 0));
        }
        if k % 3 == 0 {
            let tq = rels.len();
            rels.push(TemplateRel::new("tag_question", "tq"));
            joins.push((0, 0, tq, 1));
            let t = rels.len();
            rels.push(TemplateRel::new("tag", "t"));
            joins.push((tq, 0, t, 0));
        }
        if k % 4 == 1 {
            let c = rels.len();
            rels.push(TemplateRel::new("comment", "c"));
            joins.push((0, 0, c, 0));
        }
        if k % 5 == 2 {
            let s = rels.len();
            rels.push(TemplateRel::new("site", "s"));
            joins.push((0, 1, s, 0));
        }
        if k % 6 == 3 {
            let v = rels.len();
            rels.push(TemplateRel::new("vote", "v"));
            joins.push((0, 0, v, 0));
        }
        if k % 4 == 2 {
            let pl = rels.len();
            rels.push(TemplateRel::new("post_link", "pl"));
            joins.push((0, 0, pl, 0));
        }
        if k >= 8 {
            // Later templates join the badge table through the user.
            let u2 = rels.len();
            rels.push(TemplateRel::new("so_user", "u2"));
            joins.push((a, 1, u2, 0));
            let bd = rels.len();
            rels.push(TemplateRel::new("badge", "b").pred(PredSpec::EqSkewed {
                column: 1,
                lo: 0,
                hi: 25,
            }));
            joins.push((u2, 0, bd, 0));
        }
        out.push(Template { id, rels, joins });
    }
    out
}

/// Materialise Stack-lite: 10 queries per template, 8/2 split.
pub fn build(spec: WorkloadSpec) -> Result<Workload> {
    template_split(
        "stacklite",
        "stack-queries",
        spec,
        schema(&spec),
        &templates(),
        10,
        2,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_templates_with_paper_ids() {
        let ts = templates();
        assert_eq!(ts.len(), 12);
        assert_eq!(
            ts.iter().map(|t| t.id).collect::<Vec<_>>(),
            TEMPLATE_IDS.to_vec()
        );
    }

    #[test]
    fn heavy_tail_in_answers() {
        let wl = build(WorkloadSpec::tiny(1)).unwrap();
        let schema = wl.db.schema();
        let ans = wl.db.table(schema.table_id("answer").unwrap());
        let col = ans.column(0);
        let hot: usize = col.values().iter().filter(|&&v| v < 10).count();
        // The 10 hottest questions should own a clearly outsized share.
        assert!(
            hot as f64 > col.len() as f64 * 0.05,
            "hot={hot}/{}",
            col.len()
        );
    }

    #[test]
    fn split_is_eight_to_two() {
        let wl = build(WorkloadSpec::tiny(2)).unwrap();
        assert_eq!(wl.train.len(), 96);
        assert_eq!(wl.test.len(), 24);
        for q in wl.all_queries() {
            q.validate(wl.db.schema()).unwrap();
        }
    }
}
