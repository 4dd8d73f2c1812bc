//! Count mode is invisible except in memory, so this suite measures memory:
//! a counting `#[global_allocator]` records the peak of live heap bytes
//! during one execution.
//!
//! * `Executor::execute` must not allocate the result it counts: on the
//!   skewed hash join of the micro suite (`exec/hash_join_skewed`'s query)
//!   its peak stays below `execute_rows`' by at least the result's own size.
//! * Narrowing reaches the intermediates, not only the root: on the
//!   heaviest `skewstress` expert plan count mode peaks below
//!   `execute_rows`.
//! * No intermediate is ever materialised: on the `skewstress` instance
//!   whose intermediates are the largest, count mode peaks at a bound that
//!   does not grow with them — unbudgeted, and budgeted into a timeout,
//!   whose accounting still equals the scalar reference's bit for bit.

use foss_repro::executor::{ExecMode, Executor};
use foss_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Live heap bytes, and their high-water mark since the last [`peak_during`]
/// reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            // A moving realloc holds both blocks for the copy; count it so.
            Self::grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The measurements share one process-wide counter, so they run one at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Run `f` and return its result with the peak of heap bytes it held beyond
/// what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed).saturating_sub(before))
}

#[test]
fn count_mode_never_allocates_the_result() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    // `hash_join_skewed_case` of the micro suite: `event ⋈ audit` on the
    // Zipf-skewed hub key, forced onto a hash join.
    let wl = Workload::by_name(
        "skewstress",
        WorkloadSpec {
            seed: 42,
            scale: 0.2,
        },
    )
    .unwrap();
    let schema = wl.db.schema().clone();
    let mut qb = QueryBuilder::new(QueryId::new(9003), 1);
    let e = qb.relation(schema.table_id("event").unwrap(), "e");
    let a = qb.relation(schema.table_id("audit").unwrap(), "a");
    qb.join(e, 0, a, 0);
    let query = qb.build(&schema).unwrap();
    let icp = Icp::new(vec![0, 1], vec![JoinMethod::Hash]).unwrap();
    let plan = wl.optimizer.optimize_with_hint(&query, &icp).unwrap();

    let exec = Executor::new(&wl.db, *wl.optimizer.cost_model());
    let (counted, count_peak) = peak_during(|| exec.execute(&query, &plan, None).unwrap());
    let ((rows_out, rows), rows_peak) =
        peak_during(|| exec.execute_rows(&query, &plan, None).unwrap());
    assert_eq!(counted, rows_out);
    let result_bytes = rows.data.len() * std::mem::size_of::<u32>();
    assert_eq!(result_bytes as u64, counted.rows * 2 * 4);
    assert!(
        result_bytes > 1 << 20,
        "the fixture's result must dwarf allocator noise, got {result_bytes} B"
    );
    eprintln!(
        "skewed hash join ({} rows): execute {count_peak} B, execute_rows {rows_peak} B",
        counted.rows
    );
    assert!(
        count_peak + result_bytes <= rows_peak,
        "count mode peaked at {count_peak} B, execute_rows at {rows_peak} B: \
         less than the result's {result_bytes} B apart"
    );
}

#[test]
fn count_mode_peaks_below_execute_rows_on_the_heaviest_skewstress_plan() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    let wl = Workload::by_name("skewstress", WorkloadSpec::seeded(42)).unwrap();
    let exec = Executor::new(&wl.db, *wl.optimizer.cost_model());
    // The heaviest instance: the expert plan that does the most metered work.
    let (query, plan, full) = wl
        .train
        .iter()
        .chain(&wl.test)
        .map(|q| {
            let plan = wl.optimizer.optimize(q).unwrap();
            let out = exec.execute(q, &plan, None).unwrap();
            (q, plan, out)
        })
        .max_by(|a, b| a.2.latency.total_cmp(&b.2.latency))
        .unwrap();
    assert!(
        query.relation_count() >= 3,
        "fixture must have intermediates"
    );

    let (interp_out, interp_peak) = peak_during(|| exec.execute(query, &plan, None).unwrap());
    let (_, rows_peak) = peak_during(|| exec.execute_rows(query, &plan, None).unwrap());
    assert_eq!(interp_out, full);
    eprintln!(
        "heaviest skewstress plan (q{:?}, {} rows): execute {interp_peak} B, \
         execute_rows {rows_peak} B",
        query.id, full.rows
    );
    assert!(
        interp_peak < rows_peak,
        "count mode ({interp_peak} B) must undercut execute_rows ({rows_peak} B)"
    );
}

/// The instance of the `serve_skew` benchmark pool (`skewstress` at scale
/// 1.0; templates round-robin, constants from `StdRng::seed_from_u64(42)`)
/// whose expert plan completes under the pool's 3e7-unit cap with the
/// largest intermediates: a five-way index-nested-loop chain whose
/// materialised intermediate held 25.2 MB (count mode, join by join). Found
/// by measuring every pool instance this way; the pool is deterministic.
const WIDEST_INTERMEDIATE: usize = 1940;

fn widest_intermediate_case(wl: &Workload) -> (Query, PhysicalPlan) {
    let query = skewstress::fresh_instance(wl.db.schema(), 42, WIDEST_INTERMEDIATE).unwrap();
    let plan = wl.optimizer.optimize(&query).unwrap();
    (query, plan)
}

#[test]
fn count_mode_holds_no_intermediate_on_the_widest_skewstress_chain() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    const BOUND: usize = 2 << 20;
    let wl = Workload::by_name("skewstress", WorkloadSpec::seeded(42)).unwrap();
    let (query, plan) = widest_intermediate_case(&wl);
    assert_eq!(
        query.relation_count(),
        5,
        "fixture must be the five-way chain"
    );
    let cost = *wl.optimizer.cost_model();
    let exec = Executor::new(&wl.db, cost);
    let scalar = Executor::with_mode(&wl.db, cost, ExecMode::Scalar);

    let (full, peak) = peak_during(|| exec.execute(&query, &plan, None).unwrap());
    let (reference, scalar_peak) = peak_during(|| scalar.execute(&query, &plan, None).unwrap());
    assert_eq!(full, reference);
    eprintln!(
        "widest skewstress chain ({} rows): execute {peak} B, scalar reference {scalar_peak} B",
        full.rows
    );
    assert!(
        scalar_peak > 8 * BOUND,
        "the fixture's intermediates must dwarf the bound, got {scalar_peak} B"
    );
    assert!(peak <= BOUND, "count mode peaked at {peak} B");

    // Half its latency: the run times out, still within the bound, and
    // reports the scalar engine's spent work and budget exactly.
    let budget = Some(full.latency * 0.5);
    let (timeout, peak) = peak_during(|| exec.execute(&query, &plan, budget));
    eprintln!("at half its latency: execute {peak} B, {timeout:?}");
    assert!(peak <= BOUND, "budgeted count mode peaked at {peak} B");
    match (timeout, scalar.execute(&query, &plan, budget)) {
        (
            Err(FossError::Timeout { spent, budget }),
            Err(FossError::Timeout {
                spent: scalar_spent,
                budget: scalar_budget,
            }),
        ) => assert_eq!((spent, budget), (scalar_spent, scalar_budget)),
        other => panic!("expected twin timeouts, got {other:?}"),
    }
}
