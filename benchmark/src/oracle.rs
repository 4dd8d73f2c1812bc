//! The output check: what every reply must say, computed independently.
//!
//! No request carries a planning budget or a deadline, so a decision is a
//! pure function of snapshot and query (the `wire_parity` contract). The
//! oracle is a second, in-process `PlanDoctor` over the same snapshot with a
//! private executor; a wire reply must agree with it on the served plan, the
//! served latency to the bit, and the fallback verdict.

use foss_repro::common::{FossError, Result};
use foss_repro::service::wire::reason_str;
use foss_repro::service::{PlanReply, QueryRequest};

use crate::setup::Ready;
use crate::workload::{Requests, WorkloadDef};

/// The decision a correct server gives for one pool query.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub fingerprint: u64,
    pub latency_bits: u64,
    pub fallback: bool,
    pub reason: &'static str,
    pub selected_step: usize,
    /// Work units of the expert plan — the denominator of `plan_speedup`.
    pub expert_latency: f64,
}

impl Expected {
    /// Work units of the plan that was served.
    pub fn served_latency(&self) -> f64 {
        f64::from_bits(self.latency_bits)
    }

    /// Whether the doctor's own plan (not the expert's) was served.
    pub fn doctored(&self) -> bool {
        self.selected_step != 0 && !self.fallback
    }

    /// `Err` names the first field on which `reply` disagrees.
    pub fn check(&self, reply: &PlanReply) -> std::result::Result<(), String> {
        let differs = |field: &str, got: String, want: String| {
            Err(format!("{field}: served {got}, oracle {want}"))
        };
        if reply.fingerprint != self.fingerprint {
            return differs(
                "fingerprint",
                reply.fingerprint.to_string(),
                self.fingerprint.to_string(),
            );
        }
        if reply.latency.to_bits() != self.latency_bits {
            return differs(
                "latency",
                reply.latency.to_string(),
                self.served_latency().to_string(),
            );
        }
        if reply.fallback != self.fallback {
            return differs(
                "fallback",
                reply.fallback.to_string(),
                self.fallback.to_string(),
            );
        }
        if reply.reason != self.reason {
            return differs("reason", reply.reason.clone(), self.reason.to_string());
        }
        if reply.selected_step != self.selected_step {
            return differs(
                "selected_step",
                reply.selected_step.to_string(),
                self.selected_step.to_string(),
            );
        }
        Ok(())
    }
}

/// The expected decision per pool query; `None` for the queries too costly
/// to be requested.
pub struct Oracle {
    expected: Vec<Option<Expected>>,
}

impl Oracle {
    /// The expected decision for pool query `q`, which must be one that is
    /// requested.
    pub fn expect(&self, q: usize) -> &Expected {
        self.expected[q]
            .as_ref()
            .expect("only priced queries are requested")
    }

    pub fn pool_len(&self) -> usize {
        self.expected.len()
    }

    /// Take the requests the oracle could not price within the workload's
    /// work cap out of the sequence.
    pub fn drop_unpriced(&self, requests: &mut Requests) {
        requests.sequence.retain(|&q| self.expected[q].is_some());
    }

    /// Decide every pool query of `ready` independently of the server. Runs
    /// before anything is served, outside `setup_s` and every timed window.
    ///
    /// One query at a time: the largest executions hold hundreds of MB
    /// each, and two of them side by side would set the process's peak
    /// memory — which is reported as the served system's, not the oracle's.
    pub fn price(def: &WorkloadDef, ready: &Ready) -> Result<Self> {
        let snapshot = &ready.snapshot;
        let max_expert_work = def.traffic.max_expert_work();
        let executor = ready.private_executor();
        let doctor = ready.doctor_over(executor.clone());
        let expected: Vec<Option<Expected>> = ready
            .requests
            .pool
            .iter()
            .map(|query| {
                // Under the budget first: an over-budget execution stops at
                // the cap instead of running for seconds.
                let expert_plan = snapshot.expert_plan(query)?;
                let expert = match executor.execute(query, &expert_plan, max_expert_work) {
                    Ok(out) => out,
                    Err(FossError::Timeout { .. }) => return Ok(None),
                    Err(e) => return Err(e),
                };
                let decision = doctor.submit(QueryRequest::new(query.clone()))?;
                Ok(Some(Expected {
                    fingerprint: decision.plan.fingerprint(),
                    latency_bits: decision.latency.to_bits(),
                    fallback: decision.fallback,
                    reason: reason_str(decision.reason),
                    selected_step: decision.selected_step,
                    expert_latency: expert.latency,
                }))
            })
            .collect::<Result<_>>()?;
        println!(
            "{}: oracle priced {} pool queries, {} of them left out ({})",
            def.name,
            expected.len(),
            expected.iter().filter(|e| e.is_none()).count(),
            match max_expert_work {
                Some(cap) => format!("expert plan above {cap:e} work units"),
                None => "no work cap".to_string(),
            },
        );
        Ok(Self { expected })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected() -> Expected {
        Expected {
            fingerprint: 0xfeed_beef_0000_0001,
            latency_bits: 1234.5f64.to_bits(),
            fallback: false,
            reason: "none",
            selected_step: 2,
            expert_latency: 2000.0,
        }
    }

    fn faithful() -> PlanReply {
        PlanReply {
            fingerprint: 0xfeed_beef_0000_0001,
            fallback: false,
            reason: "none".into(),
            planning_us: 250.0,
            latency: 1234.5,
            selected_step: 2,
            candidates: 4,
            retries: 0,
            generation: 0,
        }
    }

    #[test]
    fn a_faithful_reply_passes_whatever_its_wall_clock_fields_say() {
        let mut reply = faithful();
        assert_eq!(expected().check(&reply), Ok(()));
        reply.planning_us = 9e9;
        assert_eq!(expected().check(&reply), Ok(()));
        assert!(expected().doctored());
    }

    #[test]
    fn every_corrupted_field_is_rejected_and_named() {
        type Corruption = (&'static str, fn(&mut PlanReply));
        let corruptions: [Corruption; 5] = [
            ("fingerprint", |r| r.fingerprint ^= 1),
            // One ulp: the check is on bits, not on a tolerance.
            ("latency", |r| {
                r.latency = f64::from_bits(r.latency.to_bits() + 1)
            }),
            ("fallback", |r| r.fallback = true),
            ("reason", |r| r.reason = "exec_timeout".into()),
            ("selected_step", |r| r.selected_step = 0),
        ];
        for (field, corrupt) in corruptions {
            let mut reply = faithful();
            corrupt(&mut reply);
            let err = expected().check(&reply).unwrap_err();
            assert!(err.starts_with(field), "{field}: {err}");
        }
    }
}
