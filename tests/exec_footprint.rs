//! Count mode is invisible except in memory, so this suite measures memory:
//! a counting `#[global_allocator]` records the peak of live heap bytes
//! during one execution.
//!
//! * `Executor::execute` must not allocate the result it counts: on the
//!   skewed hash join of the micro suite (`exec/hash_join_skewed`'s query)
//!   its peak stays below `execute_rows`' by at least the result's own size.
//! * Narrowing landed in the interpreter, not only at the root: on the
//!   heaviest `skewstress` expert plan the interpreter's peak is within 10 %
//!   of the fused pipeline's, so the tier has no footprint advantage left.

use foss_repro::executor::{Executor, FusedPipeline};
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
fn interpreter_footprint_matches_the_fused_tier() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    let wl = Workload::by_name("skewstress", WorkloadSpec::seeded(42)).unwrap();
    let cost = *wl.optimizer.cost_model();
    let exec = Executor::new(&wl.db, cost);
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
    let fused = FusedPipeline::compile(query, &plan).expect("skewstress expert plans compile");

    let (interp_out, interp_peak) = peak_during(|| exec.execute(query, &plan, None).unwrap());
    let (fused_out, fused_peak) = peak_during(|| fused.execute(&wl.db, cost, query, None).unwrap());
    let (_, rows_peak) = peak_during(|| exec.execute_rows(query, &plan, None).unwrap());
    assert_eq!(interp_out, full);
    assert_eq!(fused_out, full);
    eprintln!(
        "heaviest skewstress plan (q{:?}, {} rows): interpreter {interp_peak} B, \
         fused {fused_peak} B, execute_rows {rows_peak} B",
        query.id, full.rows
    );
    assert!(
        interp_peak as f64 <= fused_peak as f64 * 1.10,
        "interpreter peaked at {interp_peak} B, fused tier at {fused_peak} B"
    );
    // And both sit well below materialising the same plan in full.
    assert!(
        interp_peak < rows_peak,
        "count mode ({interp_peak} B) must undercut execute_rows ({rows_peak} B)"
    );
}
