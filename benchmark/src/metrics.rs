//! The metric and workload catalogue — the code half of `BENCHMARK.json`.
//!
//! Every name the benchmark can print is declared here once; a unit test
//! holds this table and `BENCHMARK.json` equal, and [`MetricSet::render`]
//! refuses to emit a set that is missing a declared name or carries an
//! undeclared one.

use foss_repro::service::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen before
    /// a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Must repeat bit-for-bit between two runs with the same seed.
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

/// What a user of the plan doctor sees. Every workload prints all of them:
/// each workload is the same pipeline (build → train → snapshot → serve)
/// with the weight on a different stage.
pub const END_TO_END: &[MetricDef] = &[
    timing("setup_s", "s", 0.25),
    MetricDef {
        name: "wire_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.20),
        exact: false,
    },
    timing("wire_p50_us", "us", 0.20),
    timing("wire_p99_us", "us", 0.25),
    MetricDef {
        name: "plan_speedup",
        unit: "ratio",
        better: Better::Higher,
        bound: Some(0.01),
        exact: true,
    },
    timing("peak_rss_mb", "MB", 0.25),
    timing("train_iter_s", "s", 0.25),
    timing("train_bootstrap_s", "s", 0.25),
    MetricDef {
        name: "train_test_gmrl",
        unit: "ratio",
        better: Better::Lower,
        bound: Some(0.01),
        exact: true,
    },
];

use Better::{Higher, Lower};

/// One layer each; the prefix is the workspace crate the calls go into.
pub const PER_LAYER: &[MetricDef] = &[
    layer("service.roundtrip_us", "us", Lower),
    layer("service.submit_us", "us", Lower),
    layer("service.transport_us", "us", Lower),
    layer("service.json_in_us", "us", Lower),
    layer("service.json_out_us", "us", Lower),
    layer("service.submit_overhead_us", "us", Lower),
    layer("service.tier_hits", "count", Higher),
    layer("service.tier_compiles", "count", Lower),
    layer("service.tier_fallbacks", "count", Lower),
    layer("service.fallback_share", "ratio", Lower),
    layer("service.retries", "count", Lower),
    layer("service.inflight_hwm", "count", Lower),
    layer("core.expert_plan_us", "us", Lower),
    layer("core.infer_us", "us", Lower),
    layer("core.encode_us", "us", Lower),
    layer("core.aam_pair_us", "us", Lower),
    layer("core.select_us", "us", Lower),
    layer("core.infer_unattributed_us", "us", Lower),
    layer("core.candidates_per_request", "count", Lower),
    layer("core.doctored_share", "ratio", Higher),
    layer("core.snapshot_encode_ms", "ms", Lower),
    layer("core.snapshot_decode_ms", "ms", Lower),
    layer("core.snapshot_bytes", "bytes", Lower),
    layer("core.bootstrap_s", "s", Lower),
    layer("core.train_iteration_s", "s", Lower),
    layer("core.aam_train_epoch_ms", "ms", Lower),
    layer("core.aam_batch64_us", "us", Lower),
    layer("core.aam_accuracy", "ratio", Higher),
    layer("core.buffer_plans", "count", Higher),
    layer("optimizer.dp_us", "us", Lower),
    layer("optimizer.steer_us", "us", Lower),
    layer("optimizer.dp_calls_per_request", "ratio", Lower),
    layer("executor.expert_us", "us", Lower),
    layer("executor.doctored_us", "us", Lower),
    layer("executor.cached_lookup_us", "us", Lower),
    layer("executor.cache_hit_rate", "ratio", Higher),
    layer("executor.executions", "count", Lower),
    layer("executor.work_units_per_request", "count", Lower),
    layer("executor.ns_per_work_unit", "ns", Lower),
    layer("executor.validation_execs", "count", Lower),
    layer("workloads.build_s", "s", Lower),
    layer("workloads.pool_gen_s", "s", Lower),
];

/// Look a declared metric up by name.
pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// Measured values for one of the two tables above.
#[derive(Debug)]
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<(&'static str, f64)>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> Self {
        Self {
            defs,
            values: Vec::with_capacity(defs.len()),
        }
    }

    /// Record a value. Panics on an undeclared or repeated name: that is a
    /// bug in the benchmark, never a property of the run.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            find(self.defs, name).is_some(),
            "metric `{name}` is not declared"
        );
        assert!(
            self.values.iter().all(|(n, _)| *n != name),
            "metric `{name}` recorded twice"
        );
        self.values.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// `(definition, value)` in declaration order; an error names the
    /// declared metrics that were never recorded or are not finite.
    pub fn complete(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let mut out = Vec::with_capacity(self.defs.len());
        let mut bad = Vec::new();
        for def in self.defs {
            match self.get(def.name) {
                Some(v) if v.is_finite() => out.push((def, v)),
                _ => bad.push(def.name),
            }
        }
        if bad.is_empty() {
            Ok(out)
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }

    /// The `"metrics"` object of the result line.
    pub fn render(&self) -> Result<Vec<(String, Json)>, String> {
        Ok(self
            .complete()?
            .into_iter()
            .map(|(def, v)| {
                (
                    def.name.to_string(),
                    Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(def.unit))]),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    fn name_ok(name: &str, max: usize) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn every_name_and_unit_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(def.name, 64), "{}", def.name);
            assert!(unit_ok(def.unit), "{}: {}", def.name, def.unit);
            assert!(seen.insert(def.name), "duplicate {}", def.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name, 64), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for def in END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            assert!((0.0..=0.25).contains(&bound), "{}", def.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    /// `BENCHMARK.json` at the repository root must declare exactly what the
    /// code emits: same workloads, same metrics, same units, directions and
    /// bounds, in the same order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("`{key}` must be an array, got {other:?}"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        let workloads = list("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (j, w) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(text(j, "name"), w.name);
            assert_eq!(text(j, "why"), w.why);
        }
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (j, def) in items.iter().zip(defs) {
                assert_eq!(text(j, "name"), def.name);
                assert_eq!(text(j, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(j, "better"), def.better.label(), "{}", def.name);
                assert_eq!(
                    j.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
        assert!(matches!(doc.get("run_seconds"), Some(Json::Num(s)) if (1.0..=60.0).contains(s)));
        assert_eq!(list("paths"), vec![Json::str("benchmark")]);
    }

    #[test]
    fn a_set_must_be_complete_to_render() {
        let mut set = MetricSet::new(END_TO_END);
        set.put("setup_s", 1.5);
        assert!(set.render().unwrap_err().contains("wire_qps"));
        for def in &END_TO_END[1..] {
            set.put(def.name, 2.0);
        }
        let rendered = set.render().unwrap();
        assert_eq!(rendered.len(), END_TO_END.len());
        assert_eq!(rendered[0].0, "setup_s");
        assert_eq!(rendered[0].1.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        MetricSet::new(END_TO_END).put("made_up", 1.0);
    }
}
