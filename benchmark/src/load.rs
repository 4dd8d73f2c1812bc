//! The closed-loop load generator: a few client threads, one request in
//! flight each, drawing the next request from a shared cursor.
//!
//! Nothing here panics on what the server or the network does: transport
//! errors and non-200 replies are recorded per request and counted.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use foss_repro::service::{PlanClient, PlanOutcome, PlanReply, PlanRequest};

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Reply(PlanReply),
    /// A typed wire rejection (shed, bad index, ...): `status code`.
    Rejected(String),
    /// Connection or protocol failure.
    Transport(String),
}

/// One request as the client saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Pool index that was requested.
    pub query: usize,
    /// Round trip from just before `PlanClient::plan` to its return (µs).
    pub latency_us: f64,
    pub answer: Answer,
}

/// One pass over a request sequence.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    pub wall_s: f64,
    pub samples: Vec<Sample>,
}

impl Pass {
    fn decisions(&self) -> impl Iterator<Item = &Sample> {
        self.samples
            .iter()
            .filter(|s| matches!(s.answer, Answer::Reply(_)))
    }

    /// Round trips of the requests that were answered with a decision.
    pub fn latencies_us(&self) -> Vec<f64> {
        self.decisions().map(|s| s.latency_us).collect()
    }

    /// Decisions received per second of the pass's wall time.
    pub fn qps(&self) -> f64 {
        self.decisions().count() as f64 / self.wall_s
    }
}

/// Send `sequence` through `clients` closed-loop threads and wait for every
/// answer. Which thread sends which request depends on timing; what is sent
/// does not.
pub fn run_pass(client: PlanClient, sequence: &[usize], clients: usize) -> Pass {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let samples = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::with_capacity(sequence.len() / clients.max(1) + 1);
                    // Relaxed: the cursor publishes nothing but itself.
                    while let Some(&query) = sequence.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        let request = PlanRequest::for_index(query);
                        let sent = Instant::now();
                        let outcome = client.plan(&request);
                        let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                        let answer = match outcome {
                            Ok(PlanOutcome::Decision(reply)) => Answer::Reply(reply),
                            Ok(PlanOutcome::Rejected(r)) => {
                                Answer::Rejected(format!("{} {}", r.status, r.code))
                            }
                            Err(e) => Answer::Transport(e.to_string()),
                        };
                        mine.push(Sample {
                            query,
                            latency_us,
                            answer,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| {
                w.join()
                    .expect("a load client only records; it cannot panic")
            })
            .collect()
    });
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        samples,
    }
}
