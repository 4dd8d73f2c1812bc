//! The stable wire surface of the serving API: error mapping and the JSON
//! shapes of requests and responses.
//!
//! # Error contract
//!
//! Every [`FossError`] maps to exactly one HTTP status and one
//! machine-readable code (the mapping is total — a unit test constructs
//! every variant). Error bodies are always
//! `{"code": ..., "message": ..., "retryable": ...}`; `retryable` tells a
//! client whether backing off and resending the same request can succeed.
//!
//! | variant          | status | code               | retryable |
//! |------------------|--------|--------------------|-----------|
//! | `UnknownName`    | 404    | `unknown_name`     | no        |
//! | `InvalidQuery`   | 400    | `invalid_query`    | no        |
//! | `InvalidPlan`    | 422    | `invalid_plan`     | no        |
//! | `InvalidAction`  | 422    | `invalid_action`   | no        |
//! | `Timeout`        | 504    | `timeout`          | yes       |
//! | `Numeric`        | 500    | `numeric`          | no        |
//! | `Serde`          | 400    | `malformed`        | no        |
//! | `Transient`      | 503    | `transient`        | yes       |
//! | `Overloaded`     | 429    | `overloaded`       | yes       |

use foss_common::{FossError, Result};

use crate::json::Json;
use crate::{FallbackReason, MetricsSnapshot, PlanDecision, Priority};

/// A [`FossError`] flattened onto the wire: status line + JSON body.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// HTTP status code.
    pub status: u16,
    /// Stable machine-readable error class.
    pub code: &'static str,
    /// Whether retrying the identical request can succeed.
    pub retryable: bool,
    /// Human-readable detail (the error's `Display` text).
    pub message: String,
}

impl WireError {
    /// The total `FossError` → wire mapping (see the module table).
    pub fn from_error(e: &FossError) -> Self {
        let (status, code, retryable) = match e {
            FossError::UnknownName(_) => (404, "unknown_name", false),
            FossError::InvalidQuery(_) => (400, "invalid_query", false),
            FossError::InvalidPlan(_) => (422, "invalid_plan", false),
            FossError::InvalidAction(_) => (422, "invalid_action", false),
            FossError::Timeout { .. } => (504, "timeout", true),
            FossError::Numeric(_) => (500, "numeric", false),
            FossError::Serde(_) => (400, "malformed", false),
            FossError::Transient(_) => (503, "transient", true),
            FossError::Overloaded { .. } => (429, "overloaded", true),
        };
        Self {
            status,
            code,
            retryable,
            message: e.to_string(),
        }
    }

    /// A wire error minted by the HTTP layer itself (bad route, bad body),
    /// not by a [`FossError`].
    pub fn protocol(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self {
            status,
            code,
            retryable: false,
            message: message.into(),
        }
    }

    /// The JSON error body.
    pub fn body(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(self.code)),
            ("message", Json::str(self.message.clone())),
            ("retryable", Json::Bool(self.retryable)),
        ])
    }
}

/// Stable string for each [`FallbackReason`] (wire + operator output).
pub fn reason_str(reason: FallbackReason) -> &'static str {
    match reason {
        FallbackReason::None => "none",
        FallbackReason::PlanningTimeout => "planning_timeout",
        FallbackReason::LowConfidence => "low_confidence",
        FallbackReason::ExecTimeout => "exec_timeout",
        FallbackReason::ExecError => "exec_error",
        FallbackReason::BreakerOpen => "breaker_open",
        FallbackReason::DeadlineExceeded => "deadline_exceeded",
    }
}

/// A `POST /plan` request body. The query itself is named by its index in
/// the server's workload pool — queries are deterministic functions of
/// (workload, seed, scale), so client and server share the pool by
/// construction and the wire stays tiny.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanRequest {
    /// Index into the serving pool (`all_queries()` order).
    pub query: usize,
    /// Admission class; `None` means the server default ([`Priority::High`]).
    pub priority: Option<Priority>,
    /// End-to-end deadline in µs (measured server-side from admission).
    pub deadline_us: Option<f64>,
    /// Per-request planning budget override in µs.
    pub planning_budget_us: Option<f64>,
}

impl PlanRequest {
    /// Request the pool query at `index` with defaults for everything else.
    pub fn for_index(index: usize) -> Self {
        Self {
            query: index,
            ..Self::default()
        }
    }

    /// The JSON body for this request.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![("query", Json::num(self.query as f64))];
        if let Some(p) = self.priority {
            fields.push(("priority", Json::str(priority_str(p))));
        }
        if let Some(d) = self.deadline_us {
            fields.push(("deadline_us", Json::num(d)));
        }
        if let Some(b) = self.planning_budget_us {
            fields.push(("planning_budget_us", Json::num(b)));
        }
        Json::obj(fields)
    }

    /// Parse a request body. Unknown fields are ignored (forward
    /// compatibility); a missing/mistyped `query` or an invalid `priority`
    /// is an error.
    pub fn from_json(body: &Json) -> Result<Self> {
        let query = body
            .get("query")
            .and_then(Json::as_usize)
            .ok_or_else(|| FossError::Serde("`query` must be a non-negative integer".into()))?;
        let priority = match body.get("priority") {
            None | Some(Json::Null) => None,
            Some(p) => Some(parse_priority(p.as_str().unwrap_or(""))?),
        };
        let number = |key: &str| -> Result<Option<f64>> {
            match body.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_f64()
                    .map(Some)
                    .ok_or_else(|| FossError::Serde(format!("`{key}` must be a number"))),
            }
        };
        Ok(Self {
            query,
            priority,
            deadline_us: number("deadline_us")?,
            planning_budget_us: number("planning_budget_us")?,
        })
    }
}

/// Wire spelling of a [`Priority`] (header value and JSON field).
pub fn priority_str(p: Priority) -> &'static str {
    match p {
        Priority::High => "high",
        Priority::Low => "low",
    }
}

/// Parse the wire spelling of a [`Priority`].
pub fn parse_priority(s: &str) -> Result<Priority> {
    match s {
        "high" => Ok(Priority::High),
        "low" => Ok(Priority::Low),
        other => Err(FossError::Serde(format!(
            "priority must be `high` or `low`, got `{other}`"
        ))),
    }
}

/// A successful `POST /plan` response — the wire image of a
/// [`PlanDecision`], plus the snapshot generation that planned it.
/// The plan itself rides as its fingerprint: the differential contract is
/// fingerprint equality, and shipping full plan trees would only let the
/// two sides disagree about formatting.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReply {
    /// Served plan fingerprint ([`foss_optimizer::PhysicalPlan::fingerprint`]).
    pub fingerprint: u64,
    /// Whether the expert plan was served instead of the doctored one.
    pub fallback: bool,
    /// Stable reason string (see [`reason_str`]).
    pub reason: String,
    /// Planning wall time (µs).
    pub planning_us: f64,
    /// Served execution latency (work units ≡ µs).
    pub latency: f64,
    /// Optimisation step of the served plan (0 = expert kept).
    pub selected_step: usize,
    /// Candidate plans considered.
    pub candidates: usize,
    /// Transient-failure retries spent.
    pub retries: usize,
    /// Snapshot generation that served the request.
    pub generation: u64,
}

impl PlanReply {
    /// Build the wire reply from a service decision.
    pub fn from_decision(d: &PlanDecision, generation: u64) -> Self {
        Self {
            fingerprint: d.plan.fingerprint(),
            fallback: d.fallback,
            reason: reason_str(d.reason).to_string(),
            planning_us: d.planning_us,
            latency: d.latency,
            selected_step: d.selected_step,
            candidates: d.candidates,
            retries: d.retries,
            generation,
        }
    }

    /// The JSON response body.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("fingerprint", Json::u64_str(self.fingerprint)),
            ("fallback", Json::Bool(self.fallback)),
            ("reason", Json::str(self.reason.clone())),
            ("planning_us", Json::num(self.planning_us)),
            ("latency", Json::num(self.latency)),
            ("selected_step", Json::num(self.selected_step as f64)),
            ("candidates", Json::num(self.candidates as f64)),
            ("retries", Json::num(self.retries as f64)),
            ("generation", Json::u64_str(self.generation)),
        ])
    }

    /// Parse a response body (the client half of [`PlanReply::to_json`]).
    pub fn from_json(body: &Json) -> Result<Self> {
        let missing = |k: &str| FossError::Serde(format!("plan reply lacks `{k}`"));
        Ok(Self {
            fingerprint: body
                .get("fingerprint")
                .and_then(Json::as_u64_str)
                .ok_or_else(|| missing("fingerprint"))?,
            fallback: body
                .get("fallback")
                .and_then(Json::as_bool)
                .ok_or_else(|| missing("fallback"))?,
            reason: body
                .get("reason")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("reason"))?
                .to_string(),
            planning_us: body
                .get("planning_us")
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("planning_us"))?,
            latency: body
                .get("latency")
                .and_then(Json::as_f64)
                .ok_or_else(|| missing("latency"))?,
            selected_step: body
                .get("selected_step")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("selected_step"))?,
            candidates: body
                .get("candidates")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("candidates"))?,
            retries: body
                .get("retries")
                .and_then(Json::as_usize)
                .ok_or_else(|| missing("retries"))?,
            generation: body
                .get("generation")
                .and_then(Json::as_u64_str)
                .ok_or_else(|| missing("generation"))?,
        })
    }
}

/// `GET /metrics` body: the full [`MetricsSnapshot`] as flat JSON.
pub fn metrics_to_json(m: &MetricsSnapshot) -> Json {
    let count = |v: u64| Json::num(v as f64);
    Json::obj(vec![
        ("submitted", count(m.submitted)),
        ("errors", count(m.errors)),
        ("fallbacks", count(m.fallbacks)),
        ("planning_timeouts", count(m.planning_timeouts)),
        ("low_confidence", count(m.low_confidence)),
        ("exec_timeouts", count(m.exec_timeouts)),
        ("exec_errors", count(m.exec_errors)),
        ("breaker_open_served", count(m.breaker_open_served)),
        ("deadline_exceeded", count(m.deadline_exceeded)),
        ("shed_low", count(m.shed_low)),
        ("shed_high", count(m.shed_high)),
        ("sheds", count(m.sheds)),
        ("retries", count(m.retries)),
        ("breaker_state", Json::str(m.breaker_state.label())),
        ("breaker_transitions", count(m.breaker_transitions)),
        ("breaker_times_opened", count(m.breaker_times_opened)),
        ("faults_injected", count(m.faults_injected)),
        ("fallback_rate", Json::num(m.fallback_rate)),
        ("latency_p50", Json::num(m.latency_p50)),
        ("latency_p95", Json::num(m.latency_p95)),
        ("latency_p99", Json::num(m.latency_p99)),
        ("planning_p50_us", Json::num(m.planning_p50_us)),
        ("planning_p99_us", Json::num(m.planning_p99_us)),
        (
            "in_flight_high_water",
            Json::num(m.in_flight_high_water as f64),
        ),
        ("cache_hit_rate", Json::num(m.cache_hit_rate)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One value of every `FossError` variant. Adding a variant breaks this
    /// list (non-exhaustive match below), which is the point: the wire
    /// mapping must be extended in the same change.
    fn every_variant() -> Vec<FossError> {
        vec![
            FossError::UnknownName("t".into()),
            FossError::InvalidQuery("q".into()),
            FossError::InvalidPlan("p".into()),
            FossError::InvalidAction("a".into()),
            FossError::Timeout {
                spent: 2,
                budget: 1,
            },
            FossError::Numeric("n".into()),
            FossError::Serde("s".into()),
            FossError::Transient("t".into()),
            FossError::Overloaded {
                low_priority: true,
                waited_us: 5,
            },
        ]
    }

    #[test]
    fn error_mapping_is_total_and_documented() {
        for e in every_variant() {
            // Exhaustive match: a new variant fails to compile until both
            // this test and `WireError::from_error` handle it.
            let expected = match &e {
                FossError::UnknownName(_) => (404, "unknown_name", false),
                FossError::InvalidQuery(_) => (400, "invalid_query", false),
                FossError::InvalidPlan(_) => (422, "invalid_plan", false),
                FossError::InvalidAction(_) => (422, "invalid_action", false),
                FossError::Timeout { .. } => (504, "timeout", true),
                FossError::Numeric(_) => (500, "numeric", false),
                FossError::Serde(_) => (400, "malformed", false),
                FossError::Transient(_) => (503, "transient", true),
                FossError::Overloaded { .. } => (429, "overloaded", true),
            };
            let w = WireError::from_error(&e);
            assert_eq!((w.status, w.code, w.retryable), expected, "for {e:?}");
            assert_eq!(w.message, e.to_string());
            // Every status is a legal HTTP error class.
            assert!((400..=599).contains(&w.status));
            let body = w.body();
            assert_eq!(body.get("code").and_then(Json::as_str), Some(w.code));
            assert_eq!(
                body.get("retryable").and_then(Json::as_bool),
                Some(w.retryable)
            );
        }
    }

    #[test]
    fn error_codes_are_distinct_enough_to_dispatch_on() {
        // 4xx/5xx classes must separate client mistakes from shed/transient
        // conditions: only retryable errors may share the 429/503/504 family.
        for e in every_variant() {
            let w = WireError::from_error(&e);
            if w.retryable {
                assert!(matches!(w.status, 429 | 503 | 504), "{e:?}");
            }
        }
    }

    #[test]
    fn plan_request_round_trips_through_json() {
        let full = PlanRequest {
            query: 7,
            priority: Some(Priority::Low),
            deadline_us: Some(1500.0),
            planning_budget_us: Some(200.0),
        };
        assert_eq!(
            PlanRequest::from_json(&Json::parse(&full.to_json().to_string()).unwrap()).unwrap(),
            full
        );
        let minimal = PlanRequest::for_index(0);
        assert_eq!(
            PlanRequest::from_json(&Json::parse(r#"{"query": 0}"#).unwrap()).unwrap(),
            minimal
        );
    }

    #[test]
    fn plan_request_rejects_bad_fields() {
        for bad in [
            r#"{}"#,
            r#"{"query": -1}"#,
            r#"{"query": 1.5}"#,
            r#"{"query": 0, "priority": "urgent"}"#,
            r#"{"query": 0, "deadline_us": "soon"}"#,
        ] {
            let parsed = Json::parse(bad).unwrap();
            assert!(PlanRequest::from_json(&parsed).is_err(), "`{bad}`");
        }
    }

    #[test]
    fn plan_reply_round_trips_with_u64_fidelity() {
        let reply = PlanReply {
            fingerprint: u64::MAX - 3,
            fallback: true,
            reason: "planning_timeout".into(),
            planning_us: 123.4,
            latency: 5678.9,
            selected_step: 2,
            candidates: 8,
            retries: 1,
            generation: 4,
        };
        let over_the_wire = Json::parse(&reply.to_json().to_string()).unwrap();
        assert_eq!(PlanReply::from_json(&over_the_wire).unwrap(), reply);
    }

    #[test]
    fn every_fallback_reason_has_a_stable_string() {
        let reasons = [
            FallbackReason::None,
            FallbackReason::PlanningTimeout,
            FallbackReason::LowConfidence,
            FallbackReason::ExecTimeout,
            FallbackReason::ExecError,
            FallbackReason::BreakerOpen,
            FallbackReason::DeadlineExceeded,
        ];
        let strings: Vec<_> = reasons.iter().map(|r| reason_str(*r)).collect();
        let mut dedup = strings.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), reasons.len(), "reason strings must be unique");
    }

    #[test]
    fn priority_spellings_round_trip() {
        for p in [Priority::High, Priority::Low] {
            assert_eq!(parse_priority(priority_str(p)).unwrap(), p);
        }
        assert!(parse_priority("medium").is_err());
    }
}
