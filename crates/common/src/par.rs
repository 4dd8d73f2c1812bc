//! Deterministic scoped fan-out.
//!
//! The parallel paths in this workspace (AAM gradient shards, the accuracy
//! pass, simulated-episode shards) all follow one shape: split work into
//! shards whose boundaries depend only on the input size — never on the
//! host's core count — run the shards, and consume the results **in shard
//! order** so the merged outcome is bit-for-bit reproducible regardless of
//! scheduling. Plan execution is not one of them: an operator never fans out.
//!
//! Shards are not threads. [`run_sharded`] runs contiguous runs of shards on
//! `min(shards, cores)` workers — the calling thread is one of them — so a
//! four-shard minibatch on a two-core host costs one spawned thread, not
//! four. Which worker runs a shard changes no result: each shard is a pure
//! function of its index.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Run `work(0..shards)` and return the results in shard order, on at most
/// one worker per core. With zero or one shard (or one core) no thread is
/// spawned — the closure runs inline, which keeps tiny inputs cheap and the
/// output identical.
pub fn run_sharded<T, F>(shards: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_sharded_on(cores(), shards, work)
}

/// The host's available parallelism, asked once per process (the answer can
/// mean reading cgroup files).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// [`run_sharded`] on `min(shards, workers)` workers. Worker `w` runs the
/// `w`-th contiguous run of `⌈shards / workers⌉` shards, in order; the last
/// run goes on the calling thread.
fn run_sharded_on<T, F>(workers: usize, shards: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.clamp(1, shards.max(1));
    if workers == 1 {
        return (0..shards).map(&work).collect();
    }
    let per_worker = shards.div_ceil(workers);
    let runs: Vec<std::ops::Range<usize>> = (0..shards)
        .step_by(per_worker)
        .map(|start| start..(start + per_worker).min(shards))
        .collect();
    let (last, spawned) = runs.split_last().expect("two or more shards");
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = spawned
            .iter()
            .map(|run| {
                let run = run.clone();
                scope.spawn(move || run.map(work).collect::<Vec<T>>())
            })
            .collect();
        let inline: Vec<T> = last.clone().map(work).collect();
        // Joining in spawn order makes the collection order (and any merge
        // the caller performs) independent of thread scheduling.
        let mut out = Vec::with_capacity(shards);
        for h in handles {
            out.extend(h.join().expect("shard worker panicked"));
        }
        out.extend(inline);
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_arrive_in_shard_order() {
        let out = run_sharded(8, |si| si * 10);
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn zero_and_single_shard_run_inline() {
        assert_eq!(run_sharded(0, |si| si), Vec::<usize>::new());
        assert_eq!(run_sharded(1, |si| si + 5), vec![5]);
    }

    /// The worker count is invisible: every shard runs exactly once and the
    /// results come back in shard order, whether one worker runs them all or
    /// there are more workers than shards.
    #[test]
    fn output_is_identical_on_any_worker_count() {
        for shards in [0usize, 1, 2, 3, 4, 7, 8, 9] {
            let want: Vec<usize> = (0..shards).map(|si| si * si + 1).collect();
            for workers in [1usize, 2, 3, 8] {
                let runs: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
                let got = run_sharded_on(workers, shards, |si| {
                    runs[si].fetch_add(1, Ordering::Relaxed);
                    si * si + 1
                });
                assert_eq!(got, want, "{shards} shards on {workers} workers");
                let counts: Vec<usize> = runs.iter().map(|r| r.load(Ordering::Relaxed)).collect();
                assert_eq!(
                    counts,
                    vec![1; shards],
                    "{shards} shards on {workers} workers"
                );
            }
        }
    }
}
