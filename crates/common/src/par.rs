//! Deterministic scoped fan-out.
//!
//! The parallel paths in this workspace (AAM gradient shards, pair-labelling
//! workers) all follow one shape: split work into shards whose boundaries
//! depend only on the input size — never on the host's core count — run the
//! shards on scoped threads, and consume the results **in shard order** so
//! the merged outcome is bit-for-bit reproducible regardless of scheduling.
//! Plan execution is not one of them: an operator never fans out.

/// Run `work(0..shards)` on scoped worker threads and return the results in
/// shard order. With zero or one shard no thread is spawned — the closure
/// runs inline, which keeps tiny inputs cheap and the output identical.
pub fn run_sharded<T, F>(shards: usize, work: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if shards <= 1 {
        return (0..shards).map(&work).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|si| {
                let work = &work;
                scope.spawn(move || work(si))
            })
            .collect();
        // Joining in spawn order makes the collection order (and any merge
        // the caller performs) independent of thread scheduling.
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
