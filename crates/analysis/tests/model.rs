//! Model-check suites for the production concurrency primitives.
//!
//! Run with `cargo test -p foss_analysis --features model-check`. Under that
//! feature, cargo feature unification compiles every crate in this test
//! build against the instrumented `foss_common::sync` facade, so the suites
//! below drive the *real* production code — the single-flight cache, the
//! snapshot cell, the admission gate, the circuit breaker and the metrics
//! registry — under `foss_check`'s cooperative scheduler.
//!
//! Each primitive gets an exhaustive pass at small bounds (every
//! interleaving within the schedule budget) and a seeded random pass at
//! larger ones. A failure prints a replayable trace; reproduce it with
//! [`foss_check::replay`] (choice list) or [`foss_check::replay_seed`].
#![cfg(feature = "model-check")]

use std::sync::atomic::{AtomicBool, Ordering as RealOrdering};
use std::sync::Arc;
use std::time::Duration;

use foss_check::{check_exhaustive, check_random, replay, replay_seed};

#[test]
fn facade_is_instrumented() {
    // With `model-check` enabled, cargo feature unification compiles every
    // crate in this test build against the foss_check shims; sanity-check
    // that a facade mutex really is the instrumented type.
    let _: foss_check::sync::Mutex<u32> = foss_common::sync::Mutex::new(0);
}

// ---------------------------------------------------------------------------
// core: SnapshotCell
// ---------------------------------------------------------------------------

mod snapshot {
    use super::*;
    use foss_core::SnapshotCell;

    /// One schedule: `publishes` sequential publishes of `(i, i)` race a
    /// reader that checks (a) no load ever observes a torn pair, (b) an
    /// observed generation `g` guarantees the next load carries the payload
    /// of publish `g` or later (the documented swap-then-bump ordering),
    /// and (c) the generation counter is monotone.
    fn publish_vs_read(publishes: u64, reads: usize) {
        let cell = Arc::new(SnapshotCell::new((0u64, 0u64)));
        let writer = {
            let cell = Arc::clone(&cell);
            foss_check::thread::spawn(move || {
                for i in 1..=publishes {
                    cell.publish((i, i));
                }
            })
        };
        let reader = {
            let cell = Arc::clone(&cell);
            foss_check::thread::spawn(move || {
                let mut last_gen = 0;
                for _ in 0..reads {
                    let g0 = cell.generation();
                    let v = cell.load();
                    assert_eq!(v.0, v.1, "torn snapshot read: {:?}", *v);
                    assert!(
                        v.0 >= g0,
                        "observed generation {g0} but loaded payload {}",
                        v.0
                    );
                    let g1 = cell.generation();
                    assert!(g1 >= g0, "generation went backwards: {g0} -> {g1}");
                    assert!(g0 >= last_gen, "generation went backwards across loads");
                    last_gen = g1;
                }
            })
        };
        writer.join();
        reader.join();
        assert_eq!(*cell.load(), (publishes, publishes));
        assert_eq!(cell.generation(), publishes);
    }

    #[test]
    fn exhaustive_no_torn_reads() {
        let report = check_exhaustive(100_000, || publish_vs_read(1, 2));
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    #[test]
    fn random_no_torn_reads() {
        check_random(0xF055_0001, 2_000, || publish_vs_read(2, 2)).assert_ok();
    }
}

// ---------------------------------------------------------------------------
// service: AdmissionGate
// ---------------------------------------------------------------------------

mod gate {
    use super::*;
    use foss_service::AdmissionGate;

    /// `workers` acquirers through a capacity-`cap` gate: the high-water
    /// mark (maintained under the gate lock at every admit) must never
    /// exceed capacity in any interleaving, every thread must eventually be
    /// admitted (the checker reports a lost wakeup as a deadlock), and all
    /// permits must be returned.
    fn bounded_admission(workers: usize, cap: usize) {
        let gate = Arc::new(AdmissionGate::new(cap));
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let gate = Arc::clone(&gate);
                foss_check::thread::spawn(move || {
                    let _permit = gate.acquire();
                })
            })
            .collect();
        for h in handles {
            h.join();
        }
        assert!(gate.high_water() <= cap, "gate leaked permits");
        assert_eq!(gate.in_flight(), 0, "permit not returned");
    }

    #[test]
    fn exhaustive_never_exceeds_capacity() {
        let report = check_exhaustive(200_000, || bounded_admission(2, 1));
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    #[test]
    fn random_never_exceeds_capacity() {
        check_random(0xF055_0002, 1_000, || bounded_admission(3, 2)).assert_ok();
    }

    /// A blocking acquirer against a capacity-1 gate must be woken by the
    /// holder's release in *every* interleaving — a missed `notify_one`
    /// shows up as a deadlock report from the checker.
    #[test]
    fn exhaustive_release_always_wakes_blocked_acquirer() {
        let report = check_exhaustive(100_000, || {
            let gate = Arc::new(AdmissionGate::new(1));
            let held = gate.acquire();
            let waiter = {
                let gate = Arc::clone(&gate);
                foss_check::thread::spawn(move || {
                    let _p = gate.acquire();
                })
            };
            drop(held);
            waiter.join();
            assert_eq!(gate.in_flight(), 0);
        });
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    /// A timed waiter against a gate that stays full forever must shed
    /// (never hang): once every other thread blocks, the model delivers the
    /// timeout, and the full-gate recheck turns it into `None`.
    #[test]
    fn exhaustive_saturated_gate_always_sheds_timed_waiter() {
        let report = check_exhaustive(100_000, || {
            let gate = Arc::new(AdmissionGate::new(1));
            let held = gate.acquire();
            let waiter = {
                let gate = Arc::clone(&gate);
                foss_check::thread::spawn(move || {
                    gate.acquire_timeout(Duration::from_secs(3600)).is_some()
                })
            };
            let admitted = waiter.join();
            assert!(!admitted, "permit conjured from a saturated gate");
            drop(held);
        });
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    /// A timed high-priority waiter racing the holder's release: both
    /// outcomes (shed on timeout, admitted on release) must be reachable,
    /// and a timeout that fires *after* the release must still admit — the
    /// gate rechecks fullness under the lock before shedding, so a waiting
    /// caller is never shed while a slot stands free. That recheck is what
    /// preserves the service's priority shed ordering: low priority sheds
    /// immediately via `try_acquire`, high priority only after its full
    /// wait truly found no slot.
    #[test]
    fn exhaustive_timed_waiter_explores_both_shed_and_admission() {
        let shed_seen = Arc::new(AtomicBool::new(false));
        let admit_seen = Arc::new(AtomicBool::new(false));
        let report = {
            let shed_seen = Arc::clone(&shed_seen);
            let admit_seen = Arc::clone(&admit_seen);
            check_exhaustive(200_000, move || {
                let gate = Arc::new(AdmissionGate::new(1));
                let held = gate.acquire();
                let waiter = {
                    let gate = Arc::clone(&gate);
                    foss_check::thread::spawn(move || {
                        let p = gate.acquire_timeout(Duration::from_secs(3600));
                        p.is_some()
                    })
                };
                drop(held);
                if waiter.join() {
                    admit_seen.store(true, RealOrdering::Relaxed);
                } else {
                    shed_seen.store(true, RealOrdering::Relaxed);
                }
                assert!(gate.high_water() <= 1, "gate leaked permits");
                assert_eq!(gate.in_flight(), 0);
            })
        };
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
        assert!(
            shed_seen.load(RealOrdering::Relaxed),
            "no schedule delivered the timeout while the gate was full"
        );
        assert!(
            admit_seen.load(RealOrdering::Relaxed),
            "no schedule admitted the waiter after the release"
        );
    }
}

// ---------------------------------------------------------------------------
// service: CircuitBreaker
// ---------------------------------------------------------------------------

mod breaker {
    use super::*;
    use foss_service::{BreakerConfig, BreakerDecision, BreakerState, CircuitBreaker};

    fn tiny(cooldown: usize) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            window: 2,
            min_samples: 2,
            failure_threshold: 0.5,
            cooldown,
            probes: 1,
        })
    }

    /// Two racing probe outcomes against a half-open breaker: whichever
    /// lands first decides (success closes, failure reopens) and the loser
    /// must be discarded as stale — the breaker must end Open or Closed,
    /// never wedged half-open, and both resolutions must be reachable.
    fn probe_race(open_seen: &AtomicBool, closed_seen: &AtomicBool) {
        let breaker = Arc::new(tiny(1));
        breaker.on_outcome(0, false, false);
        breaker.on_outcome(0, false, false);
        assert_eq!(breaker.state(), BreakerState::Open);
        assert_eq!(breaker.admit(0), BreakerDecision::Probe);
        let ok_probe = {
            let breaker = Arc::clone(&breaker);
            foss_check::thread::spawn(move || breaker.on_outcome(0, true, true))
        };
        let bad_probe = {
            let breaker = Arc::clone(&breaker);
            foss_check::thread::spawn(move || breaker.on_outcome(0, false, true))
        };
        ok_probe.join();
        bad_probe.join();
        match breaker.state() {
            BreakerState::Open => open_seen.store(true, RealOrdering::Relaxed),
            BreakerState::Closed => closed_seen.store(true, RealOrdering::Relaxed),
            BreakerState::HalfOpen => panic!("breaker wedged half-open after both probes landed"),
        }
    }

    #[test]
    fn exhaustive_probe_race_settles_open_or_closed() {
        let open_seen = Arc::new(AtomicBool::new(false));
        let closed_seen = Arc::new(AtomicBool::new(false));
        let report = {
            let open_seen = Arc::clone(&open_seen);
            let closed_seen = Arc::clone(&closed_seen);
            check_exhaustive(100_000, move || probe_race(&open_seen, &closed_seen))
        };
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
        assert!(
            open_seen.load(RealOrdering::Relaxed),
            "failure-first order unexplored"
        );
        assert!(
            closed_seen.load(RealOrdering::Relaxed),
            "success-first order unexplored"
        );
    }

    #[test]
    fn random_probe_race_settles_open_or_closed() {
        let open_seen = Arc::new(AtomicBool::new(false));
        let closed_seen = Arc::new(AtomicBool::new(false));
        let report = {
            let open_seen = Arc::clone(&open_seen);
            let closed_seen = Arc::clone(&closed_seen);
            check_random(0xF055_0003, 500, move || {
                probe_race(&open_seen, &closed_seen)
            })
        };
        report.assert_ok();
        assert!(open_seen.load(RealOrdering::Relaxed) && closed_seen.load(RealOrdering::Relaxed));
    }

    /// Two admits racing across the cooldown boundary of an open breaker:
    /// exactly one may be promoted to the recovery probe, the other must be
    /// bypassed, in every interleaving.
    #[test]
    fn exhaustive_cooldown_promotes_exactly_one_probe() {
        let report = check_exhaustive(100_000, || {
            let breaker = Arc::new(tiny(2));
            breaker.on_outcome(0, false, false);
            breaker.on_outcome(0, false, false);
            assert_eq!(breaker.state(), BreakerState::Open);
            let decisions: Vec<BreakerDecision> = [(); 2]
                .iter()
                .map(|_| {
                    let breaker = Arc::clone(&breaker);
                    foss_check::thread::spawn(move || breaker.admit(0))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join())
                .collect();
            let probes = decisions
                .iter()
                .filter(|d| **d == BreakerDecision::Probe)
                .count();
            let bypasses = decisions
                .iter()
                .filter(|d| **d == BreakerDecision::Bypass)
                .count();
            assert_eq!(
                (probes, bypasses),
                (1, 1),
                "cooldown raced: decisions {decisions:?}"
            );
        });
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }
}

// ---------------------------------------------------------------------------
// service: MetricsRegistry
// ---------------------------------------------------------------------------

mod metrics {
    use super::*;
    use foss_executor::CacheStats;
    use foss_service::{BreakerState, BreakerView, MetricsRegistry};

    fn idle_breaker() -> BreakerView {
        BreakerView {
            state: BreakerState::Closed,
            transitions: 0,
            times_opened: 0,
        }
    }

    /// Two recorders (one clean outcome, one exec-error fallback) race —
    /// optionally against a snapshot reader, which multiplies the
    /// interleaving space (the snapshot reads a dozen counters plus both
    /// reservoirs) and is therefore reserved for the random pass. Counters
    /// must conserve totals once both land, the reservoir lock must never
    /// deadlock against a concurrent push, and a mid-flight snapshot must
    /// see a prefix (0..=2 submissions), never garbage.
    fn concurrent_records(with_observer: bool) {
        let reg = Arc::new(MetricsRegistry::default());
        let recorders: Vec<_> = [
            foss_service::FallbackReason::None,
            foss_service::FallbackReason::ExecError,
        ]
        .into_iter()
        .map(|reason| {
            let reg = Arc::clone(&reg);
            foss_check::thread::spawn(move || {
                reg.record(reason, 5.0, 100.0);
            })
        })
        .collect();
        let observer = with_observer.then(|| {
            let reg = Arc::clone(&reg);
            foss_check::thread::spawn(move || {
                let mid = reg.snapshot(CacheStats::default(), 0, idle_breaker(), 0);
                assert!(
                    mid.submitted <= 2,
                    "snapshot saw {} > 2 submissions",
                    mid.submitted
                );
            })
        });
        for r in recorders {
            r.join();
        }
        if let Some(o) = observer {
            o.join();
        }
        let fin = reg.snapshot(CacheStats::default(), 0, idle_breaker(), 0);
        assert_eq!(fin.submitted, 2);
        assert_eq!(fin.fallbacks, 1);
        assert_eq!(fin.exec_errors, 1);
        assert_eq!(fin.errors, 0);
        assert_eq!(fin.latency_p50, 100.0);
    }

    #[test]
    fn exhaustive_concurrent_records_conserve_totals() {
        let report = check_exhaustive(200_000, || concurrent_records(false));
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    #[test]
    fn random_concurrent_records_conserve_totals() {
        check_random(0xF055_0004, 500, || concurrent_records(true)).assert_ok();
    }
}

// ---------------------------------------------------------------------------
// service: ConnRegistry (the server's live connections)
// ---------------------------------------------------------------------------

mod connections {
    use super::*;
    use foss_check::thread::JoinHandle;
    use foss_common::sync::{Condvar, Mutex};
    use foss_service::http::ConnRegistry;

    /// A connection as its thread sees it: blocked in `read` until the
    /// registry's `close` shuts it.
    #[derive(Default)]
    struct Conn {
        shut: Mutex<bool>,
        wake: Condvar,
    }

    impl Conn {
        fn shut(&self) {
            *self.shut.lock() = true;
            self.wake.notify_all();
        }

        fn read_until_shut(&self) {
            let mut shut = self.shut.lock();
            while !*shut {
                shut = self.wake.wait(shut);
            }
        }
    }

    /// An accept loop registering `idle` connections that park until shut
    /// and `brief` ones whose peer hangs up at once, reaping as it goes,
    /// races a shutdown. In every interleaving: a connection registered
    /// before the close is shut by it (a missed one never returns from
    /// `read_until_shut`, which the checker reports as a deadlock), one
    /// arriving after is refused, and every started thread's handle comes
    /// out of `reap` or `close` exactly once — `join` consumes it, so twice
    /// cannot compile, and the count catches a lost one.
    fn accept_vs_shutdown(idle: usize, brief: usize) {
        let registry: Arc<ConnRegistry<Arc<Conn>, JoinHandle<()>>> = Arc::default();
        let acceptor = {
            let registry = Arc::clone(&registry);
            foss_check::thread::spawn(move || {
                let (mut started, mut joined) = (0, 0);
                for i in 0..idle + brief {
                    for done in registry.reap() {
                        done.join();
                        joined += 1;
                    }
                    let conn = Arc::new(Conn::default());
                    let thread_conn = Arc::clone(&conn);
                    let thread_registry = Arc::clone(&registry);
                    started += usize::from(registry.spawn(conn, move |id| {
                        foss_check::thread::spawn(move || {
                            if i < idle {
                                thread_conn.read_until_shut();
                            }
                            thread_registry.finish(id);
                        })
                    }));
                }
                (started, joined)
            })
        };
        let mut joined = 0;
        for handle in registry.close(|conn| conn.shut()) {
            handle.join();
            joined += 1;
        }
        let (started, reaped) = acceptor.join();
        assert_eq!(joined + reaped, started, "a connection thread was lost");
        assert_eq!(registry.open(), 0, "a connection outlived the close");
        assert!(registry.reap().is_empty(), "a handle surfaced after close");
        assert!(
            !registry.spawn(Arc::default(), |_| unreachable!("closed")),
            "a closed registry took a connection"
        );
    }

    #[test]
    fn exhaustive_shutdown_closes_and_joins_every_connection() {
        // One parked connection, then one whose peer already hung up: the
        // two ways a handle travels (close, finish-then-reap). Two
        // connections at once exceed any exhaustive budget; the random pass
        // below covers them.
        for (idle, brief) in [(1, 0), (0, 1)] {
            let report = check_exhaustive(100_000, move || accept_vs_shutdown(idle, brief));
            report.assert_ok();
            assert!(report.complete, "exhaustive budget too small");
        }
    }

    #[test]
    fn random_shutdown_closes_and_joins_every_connection() {
        check_random(0xF055_0007, 1_000, || accept_vs_shutdown(2, 2)).assert_ok();
    }
}

// ---------------------------------------------------------------------------
// executor: CachingExecutor single-flight
// ---------------------------------------------------------------------------

mod cache {
    use super::*;
    use foss_catalog::{ColumnDef, Schema, TableDef};
    use foss_common::QueryId;
    use foss_executor::{CachingExecutor, Database};
    use foss_optimizer::{AccessPath, CostModel, PhysicalPlan, PlanNode};
    use foss_query::{Predicate, Query, QueryBuilder};
    use foss_storage::{Column, Table};

    /// A one-table database with a trivial scan query, built once per test
    /// (the database is plain data — only the executor's own primitives
    /// must be created inside the model).
    fn fixture() -> (Arc<Database>, Arc<Query>, Arc<PhysicalPlan>) {
        let mut schema = Schema::new();
        schema
            .add_table(TableDef {
                name: "a".into(),
                columns: vec![ColumnDef::indexed("id")],
            })
            .unwrap();
        let schema = Arc::new(schema);
        let table = Table::new("a", vec![("id".into(), Column::new((0..8).collect()))]).unwrap();
        let db = Arc::new(Database::new(schema.clone(), vec![table], 8).unwrap());
        let mut qb = QueryBuilder::new(QueryId::new(7), 1);
        let ra = qb.relation(schema.table_id("a").unwrap(), "a");
        qb.predicate(
            ra,
            Predicate::Eq {
                column: 0,
                value: 3,
            },
        );
        let query = Arc::new(qb.build(&schema).unwrap());
        let plan = Arc::new(PhysicalPlan {
            root: PlanNode::Scan {
                relation: 0,
                access: AccessPath::SeqScan,
                est_rows: 1.0,
                est_cost: 1.0,
            },
        });
        (db, query, plan)
    }

    /// Two concurrent misses on the same key: single-flight must collapse
    /// them to exactly one real execution (the second caller either waits
    /// on the in-flight claim or hits the filled cache), in every
    /// interleaving.
    fn single_flight(db: &Arc<Database>, query: &Arc<Query>, plan: &Arc<PhysicalPlan>) {
        let cx = Arc::new(CachingExecutor::new(Arc::clone(db), CostModel::default()));
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let cx = Arc::clone(&cx);
                let query = Arc::clone(query);
                let plan = Arc::clone(plan);
                foss_check::thread::spawn(move || cx.execute(&query, &plan, None).unwrap().latency)
            })
            .collect();
        let latencies: Vec<f64> = workers.into_iter().map(|w| w.join()).collect();
        assert_eq!(latencies[0], latencies[1], "same key, different outcomes");
        let stats = cx.stats();
        assert_eq!(
            stats.executions, 1,
            "single-flight violated: executed twice"
        );
        assert_eq!(stats.hits, 1, "second caller must be served from cache");
    }

    #[test]
    fn exhaustive_no_double_execution() {
        let (db, query, plan) = fixture();
        let report = check_exhaustive(400_000, move || single_flight(&db, &query, &plan));
        report.assert_ok();
        assert!(report.complete, "exhaustive budget too small");
    }

    #[test]
    fn random_no_double_execution() {
        let (db, query, plan) = fixture();
        check_random(0xF055_0005, 500, move || single_flight(&db, &query, &plan)).assert_ok();
    }

    /// Mutation regression: the pre-single-flight cache (`execute_unflighted`,
    /// the PR 6 code before the in-flight claim existed) re-executes on
    /// concurrent misses. The checker must FIND that interleaving within a
    /// small bound — proof the suite would have caught the original bug —
    /// and the failure must replay deterministically from its choice list.
    #[test]
    fn exhaustive_finds_double_execution_in_unflighted_cache() {
        let unflighted = |db: &Arc<Database>, query: &Arc<Query>, plan: &Arc<PhysicalPlan>| {
            let cx = Arc::new(CachingExecutor::new(Arc::clone(db), CostModel::default()));
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let cx = Arc::clone(&cx);
                    let query = Arc::clone(query);
                    let plan = Arc::clone(plan);
                    foss_check::thread::spawn(move || {
                        cx.execute_unflighted(&query, &plan, None).unwrap();
                    })
                })
                .collect();
            for w in workers {
                w.join();
            }
            assert_eq!(
                cx.stats().executions,
                1,
                "single-flight violated: executed twice"
            );
        };

        let (db, query, plan) = fixture();
        let report = {
            let (db, query, plan) = (db.clone(), query.clone(), plan.clone());
            check_exhaustive(50_000, move || unflighted(&db, &query, &plan))
        };
        let failure = report.assert_failed();
        assert!(
            failure.message.contains("single-flight violated"),
            "unexpected failure: {}",
            failure.render()
        );

        // The recorded choice list replays the exact same interleaving.
        let choices = failure.choices.clone();
        let trace = failure.trace.clone();
        let replayed = {
            let (db, query, plan) = (db.clone(), query.clone(), plan.clone());
            replay(&choices, move || unflighted(&db, &query, &plan))
        };
        let refailure = replayed.assert_failed();
        assert_eq!(
            refailure.trace, trace,
            "replay diverged from original trace"
        );

        // Random search finds it too, and its seed alone reproduces it.
        let random = {
            let (db, query, plan) = (db.clone(), query.clone(), plan.clone());
            check_random(0xF055_0006, 2_000, move || unflighted(&db, &query, &plan))
        };
        let rfailure = random.assert_failed();
        let seed = rfailure.seed.expect("random failure must carry its seed");
        let rtrace = rfailure.trace.clone();
        let reseeded = replay_seed(seed, move || unflighted(&db, &query, &plan));
        assert_eq!(
            reseeded.assert_failed().trace,
            rtrace,
            "seed replay diverged from original trace"
        );
    }
}
